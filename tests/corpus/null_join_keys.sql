-- corpus regression: null_join_keys.sql
-- pins: NULL equi-join keys never match -- not even NULL = NULL --
-- in hash join, nested loops, and sort-merge (sorting join input
-- by key with unfiltered NULLs used to TypeError).
create table t1 (c0 int null, c1 int);
create table t2 (c0 int null, c2 int);
insert into t1 values (1, 10), (null, 20), (2, 30), (null, 40);
insert into t2 values (1, 100), (null, 200), (3, 300), (null, 400);
select r1.c1 as x1, r2.c2 as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0;
select r1.c0 as x1, count(*) as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0 group by r1.c0;
