-- corpus regression: notin_null_inner.sql
-- pins: NOT IN with a NULL in the subquery result -- three-valued
-- logic makes every membership verdict FALSE or UNKNOWN, so the
-- answer is empty; the null-aware anti join, the reference
-- evaluator's naive mark filter, and SQLite must all agree.
-- Filtering the NULLs away inside the subquery restores ordinary
-- anti-join semantics.
create table t1 (c0 int, c1 int null);
insert into t1 values (1, 1), (2, null), (3, 2), (4, 1);
select r1.c0 as x1 from t1 r1 where r1.c0 not in (select s1.c1 from t1 s1);
select r1.c0 as x1 from t1 r1 where r1.c0 not in (select s1.c1 from t1 s1 where s1.c1 is not null);
select r1.c0 as x1 from t1 r1 where r1.c1 not in (select s1.c1 from t1 s1 where s1.c1 is not null);
