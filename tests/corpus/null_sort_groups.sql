-- corpus regression: null_sort_groups.sql
-- pins: sort-based grouping orders NULL keys consistently
-- (NullOrdered wrapper); mixed NULL/value keys in multi-key
-- group-bys agree across the engine, the reference evaluator and
-- SQLite.
create table t1 (c0 int null, c1 str null, c2 int);
insert into t1 values (1, 'a', 10), (null, 'a', 20), (1, null, 30), (null, null, 40), (1, 'a', 50), (null, 'a', 60);
select r1.c0 as x1, r1.c1 as x2, count(*) as x3, sum(r1.c2) as x4 from t1 r1 group by r1.c0, r1.c1;
