-- corpus regression: notin_correlated_groups.sql
-- pins: correlated NOT IN applies the NULL rule per correlation
-- group -- a NULL in group 1 rejects only group 1's unmatched rows,
-- group 3 is empty and accepts, a NULL outer correlation value meets
-- an empty set and accepts; NOT IN over a computed value, a
-- two-relation NOT EXISTS body and an uncorrelated scalar over no
-- rows flatten too, and every config agrees with SQLite.
create table t1 (c0 int, c1 int null, c2 int null);
create table t2 (c0 int null, c1 int null);
insert into t1 values (1, 1, 5), (2, 1, 6), (3, 2, 8), (4, 2, 7), (5, 3, 1), (6, null, 5), (7, 2, null);
insert into t2 values (1, null), (1, 5), (2, 7), (null, 6);
select r1.c0 as x1 from t1 r1 where r1.c2 not in (select s1.c1 from t2 s1 where s1.c0 = r1.c1);
select r1.c0 as x1 from t1 r1 where r1.c2 + 1 not in (select s1.c1 from t2 s1 where s1.c0 = r1.c1);
select r1.c0 as x1 from t1 r1 where not exists (select s1.c0 from t2 s1, t1 s2 where s1.c0 = s2.c1 and s2.c2 = r1.c2);
select r1.c0 as x1 from t1 r1 where r1.c0 > (select sum(s1.c1) from t2 s1 where s1.c1 > 100);
