SELECT DISTINCT t8.c1, t3.c1
FROM child_cacheEntry.xml AS t0, child_cacheEntry.xml AS t1, child_cacheEntry.xml AS t2, drugPrice AS t3, root_cacheEntry.xml AS t4, tag_cacheEntry.xml AS t5, tag_cacheEntry.xml AS t6, tag_cacheEntry.xml AS t7, text_cacheEntry.xml AS t8, text_cacheEntry.xml AS t9
WHERE t1.c0 = t0.c1
  AND t2.c0 = t0.c1
  AND t4.c0 = t0.c0
  AND t5.c0 = t1.c1
  AND t5.c1 = 'diagnosis'
  AND t6.c0 = t2.c1
  AND t6.c1 = 'drug'
  AND t7.c0 = t0.c1
  AND t7.c1 = 'entry'
  AND t8.c0 = t1.c1
  AND t9.c0 = t2.c1
  AND t9.c1 = t3.c0