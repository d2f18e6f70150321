-- corpus regression: scalar_count_empty.sql
-- pins: the COUNT bug (Kim) -- a correlated COUNT subquery over an
-- empty group must compare as 0, not vanish: the decorrelated plan
-- LEFT-joins the counting view and IFNULLs the result, matching the
-- reference evaluator's naive mark filter and SQLite. SUM over an
-- empty group stays NULL, so its comparison is UNKNOWN and the row
-- drops.
create table t1 (c0 int, c1 int);
create table t2 (c0 int, c1 int);
insert into t1 values (1, 10), (2, 20), (3, 30);
insert into t2 values (1, 5), (1, 6), (3, 7);
select r1.c0 as x1 from t1 r1 where (select count(s1.c0) from t2 s1 where s1.c0 = r1.c0) = 0;
select r1.c0 as x1 from t1 r1 where (select count(s1.c0) from t2 s1 where s1.c0 = r1.c0) >= 1;
select r1.c0 as x1 from t1 r1 where (select sum(s1.c1) from t2 s1 where s1.c0 = r1.c0) > 4;
