-- corpus regression: having_aggregate_is_null.sql
-- pins: HAVING over IS [NOT] NULL of an aggregate (also under NOT)
-- binds the aggregate to its output, as in a HAVING comparison, and
-- keeps or drops the all-NULL group as SQLite does.
create table t1 (c0 int, c1 int null);
create table t2 (c0 int, c1 int);
insert into t1 values (1, null), (1, null), (2, 5), (2, 7), (3, 1), (4, null);
insert into t2 values (1, 1), (2, 2), (3, 3), (2, 4);
select r1.c0 as x1, sum(r1.c1) as x2 from t1 r1 group by r1.c0 having sum(r1.c1) is null;
select r1.c0 as x1, sum(r1.c1) as x2 from t1 r1 group by r1.c0 having sum(r1.c1) is not null;
select r1.c0 as x1, count(*) as x2 from t1 r1 group by r1.c0 having not (max(r1.c1) is null);
select r1.c0 as x1, avg(r1.c1) as x2 from t1 r1 group by r1.c0 having min(r1.c1) is null and count(*) > 1;
select r2.c0 as x1, sum(r1.c1) as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0 group by r2.c0 having sum(r1.c1) is null;
select r2.c0 as x1, count(r1.c1) as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0 group by r2.c0 having max(r1.c1) is not null;
