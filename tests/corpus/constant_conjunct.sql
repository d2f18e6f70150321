-- corpus regression: constant_conjunct.sql
-- pins: a WHERE conjunct that reads no column (1 = 0, 2 > 1) is
-- applied once in every plan -- in the outer block, beside a join,
-- under GROUP BY, in an IN / NOT IN / EXISTS body and in a WITH view
-- body -- never dropped because it places on no relation.
create table t1 (c0 int, c1 int null);
create table t2 (c0 int, c1 int);
insert into t1 values (1, 10), (2, null), (3, 30), (4, 40), (1, 5);
insert into t2 values (1, 1), (2, 2), (5, 5), (1, 7);
create materialized view mv1 as select r1.c0 as x1, count(*) as x2 from t1 r1 group by r1.c0;
select r1.c0 as x1 from t1 r1 where 1 = 0;
select r1.c0 as x1 from t1 r1 where 2 > 1;
select r1.c0 as x1, r2.c1 as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0 and 1 = 0;
select r1.c0 as x1, r2.c1 as x2 from t1 r1, t2 r2 where r1.c0 = r2.c0 and 1 = 1;
select r1.c0 as x1, count(*) as x2, sum(r2.c1) as x3 from t1 r1, t2 r2 where r1.c0 = r2.c0 and 1 = 0 group by r1.c0;
select r1.c0 as x1, count(*) as x2, sum(r2.c1) as x3 from t1 r1, t2 r2 where r1.c0 = r2.c0 and 3 >= 3 group by r1.c0;
select r1.c0 as x1, count(*) as x2 from t1 r1 where 1 = 0 group by r1.c0;
select r1.c0 as x1 from t1 r1 where r1.c0 in (select r2.c0 from t2 r2 where 1 = 0);
select r1.c0 as x1 from t1 r1 where r1.c0 not in (select r2.c0 from t2 r2 where 1 = 0);
select r1.c0 as x1 from t1 r1 where exists (select r2.c0 from t2 r2 where r2.c0 = r1.c0 and 1 = 0);
select r1.c0 as x1 from t1 r1 where not exists (select r2.c0 from t2 r2 where r2.c0 = r1.c0 and 1 = 0);
with v1(k0, v0) as (select r1.c0 as k0, sum(r1.c1) as v0 from t1 r1 where 1 = 0 group by r1.c0) select r2.k0 as x1, r3.c1 as x2 from v1 r2, t2 r3 where r2.k0 = r3.c0;
with v2(k0, v0) as (select r1.c0 as k0, count(*) as v0 from t1 r1 group by r1.c0) select r2.k0 as x1, r3.c1 as x2 from v2 r2, t2 r3 where r2.k0 = r3.c0 and 1 = 0;
select r2.x1 as x1, r2.x2 as x2 from mv1 r2 where 1 = 0;
select r1.c0 as x1, count(*) as x2 from t1 r1 where 1 = 0 group by r1.c0 having count(*) > 0;
