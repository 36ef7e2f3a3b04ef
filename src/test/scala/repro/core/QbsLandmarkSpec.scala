package repro.core

import repro.{Fixtures, SparkSpec}
import repro.graph.GraphOps

/** QbS exactness at landmark-count extremes and sketch/coverage consistency. */
class QbsLandmarkSpec extends SparkSpec {

  private lazy val local = Fixtures.randomLocal(60, 3, 21L)
  private lazy val df = {
    val d = GraphOps.fromPairs(spark, local.edges.toSeq)
    GraphOps.materialize(d)
  }

  for (nLm <- Seq(1, 3, 10, 25)) {
    test(s"|R| = $nLm: QbS equals the reference on sampled pairs") {
      val idx = QbS.build(spark, df, numLandmarks = nLm)
      val rnd = new scala.util.Random(nLm)
      val nonLm = local.vertices.filterNot(idx.landmarks.contains)
      for (_ <- 1 to 3) {
        val u = nonLm(rnd.nextInt(nonLm.length))
        val v = nonLm(rnd.nextInt(nonLm.length))
        val a = QbS.query(idx, u, v)
        assert(a.edges === local.spg(u, v), s"pair ($u,$v)")
      }
    }
  }

  test("landmark endpoints: seeded sweep equals the reference") {
    val idx = QbS.build(spark, df, numLandmarks = 5)
    val rnd = new scala.util.Random(17)
    val pairs = for (r <- idx.landmarks; _ <- 1 to 4) yield {
      val w = local.vertices(rnd.nextInt(local.vertices.length))
      if (rnd.nextBoolean()) (r, w) else (w, r)
    }
    val lmPairs = for (r <- idx.landmarks; rp <- idx.landmarks if r < rp) yield (r, rp)
    for ((u, v) <- pairs ++ lmPairs) {
      val a = QbS.query(idx, u, v)
      assert(a.edges === local.spg(u, v), s"pair ($u,$v)")
      assert(a.distance === local.distance(u, v), s"distance ($u,$v)")
    }
  }

  test("more landmarks never shrink the meta-graph below connectivity needs") {
    // meta distances must agree with true landmark-to-landmark distances
    val idx = QbS.build(spark, df, numLandmarks = 6)
    for (r <- idx.landmarks; rp <- idx.landmarks if r < rp) {
      assert(idx.meta.distance(r, rp) === local.distance(r, rp), s"pair ($r,$rp)")
    }
  }

  test("dTop equals the true distance whenever some shortest path hits a landmark") {
    val idx = QbS.build(spark, df, numLandmarks = 6)
    val lmSet = idx.landmarks.toSet
    val nonLm = local.vertices.filterNot(lmSet.contains)
    val rnd = new scala.util.Random(5)
    var checked = 0
    while (checked < 5) {
      val u = nonLm(rnd.nextInt(nonLm.length))
      val v = nonLm(rnd.nextInt(nonLm.length))
      if (u != v) {
        val d = local.distance(u, v).get
        val du = local.bfs(u); val dv = local.bfs(v)
        val hitsLandmark = lmSet.exists(r =>
          du.get(r).zip(dv.get(r)).exists { case (a, b) => a + b == d })
        val a = QbS.query(idx, u, v)
        if (hitsLandmark) {
          // d⊤ = d: the recover stage must have run (coverage "all" or "some")
          assert(a.usedRecover, s"pair ($u,$v)")
        }
        assert(a.distance === Some(d))
        checked += 1
      }
    }
  }

  test("coverage never reports recover when no shortest path hits a landmark") {
    val idx = QbS.build(spark, df, numLandmarks = 4)
    val lmSet = idx.landmarks.toSet
    val nonLm = local.vertices.filterNot(lmSet.contains)
    val rnd = new scala.util.Random(13)
    var checked = 0
    while (checked < 5) {
      val u = nonLm(rnd.nextInt(nonLm.length))
      val v = nonLm(rnd.nextInt(nonLm.length))
      if (u != v) {
        val d = local.distance(u, v).get
        val du = local.bfs(u); val dv = local.bfs(v)
        val hitsLandmark = lmSet.exists(r =>
          du.get(r).zip(dv.get(r)).exists { case (a, b) => a + b == d })
        val a = QbS.query(idx, u, v)
        if (!hitsLandmark) assert(QbS.coverage(a) === "none", s"pair ($u,$v)")
        checked += 1
      }
    }
  }
}
