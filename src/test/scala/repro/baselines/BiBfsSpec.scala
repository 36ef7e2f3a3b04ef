package repro.baselines

import repro.{Fixtures, SparkSpec}
import repro.graph.GraphOps

/** Bi-directional BFS baseline: exactness and counters. */
class BiBfsSpec extends SparkSpec {

  private lazy val fig4Sym =
    GraphOps.materialize(GraphOps.symmetric(Fixtures.fig4Df(spark)))

  test("fig4: Bi-BFS answers SPG(6,11) with Figure 6(f)") {
    val r = BiBfs.spg(fig4Sym, 6L, 11L)
    assert(r.edges === Fixtures.fig4Spg611)
    assert(r.distance === Some(5))
  }

  test("fig4: Bi-BFS equals the reference for sampled pairs") {
    val g = Fixtures.fig4Local
    for ((u, v) <- Seq((4L, 10L), (5L, 9L), (13L, 8L), (7L, 12L), (14L, 10L))) {
      val r = BiBfs.spg(fig4Sym, u, v)
      assert(r.edges === g.spg(u, v), s"pair ($u,$v)")
      assert(r.distance === g.distance(u, v), s"distance ($u,$v)")
    }
  }

  test("adjacent pair") {
    val r = BiBfs.spg(fig4Sym, 9L, 10L)
    assert(r.edges === Set((9L, 10L)) && r.distance === Some(1))
  }

  test("same vertex") {
    val r = BiBfs.spg(fig4Sym, 9L, 9L)
    assert(r.edges.isEmpty && r.distance === Some(0))
  }

  test("disconnected pair yields empty") {
    val sym = GraphOps.materialize(GraphOps.symmetric(
      GraphOps.fromPairs(spark, Seq((1L, 2L), (10L, 11L)))))
    val r = BiBfs.spg(sym, 1L, 11L)
    assert(r.edges.isEmpty && r.distance === None)
  }

  test("counters record traversal work") {
    val r = BiBfs.spg(fig4Sym, 6L, 11L)
    assert(r.levels > 0 && r.edgesTraversed > 0)
  }

  test("path 0–150: SPG(10, 140) is the 130-edge path (no level cap)") {
    val path = (0L until 150L).map(i => (i, i + 1))
    val sym = GraphOps.materialize(GraphOps.symmetric(GraphOps.fromPairs(spark, path)))
    val r = BiBfs.spg(sym, 10L, 140L)
    assert(r.distance === Some(130))
    assert(r.edges === (10L until 140L).map(i => (i, i + 1)).toSet)
    sym.unpersist()
  }

  for (seed <- 1L to 3L) {
    test(s"random graph seed=$seed: Bi-BFS equals the reference") {
      val local = Fixtures.randomLocal(70, 3, seed)
      val sym = GraphOps.materialize(GraphOps.symmetric(
        GraphOps.fromPairs(spark, local.edges.toSeq)))
      val rnd = new scala.util.Random(seed + 7)
      val vs = local.vertices
      for (_ <- 1 to 3) {
        val u = vs(rnd.nextInt(vs.length)); val v = vs(rnd.nextInt(vs.length))
        val r = BiBfs.spg(sym, u, v)
        assert(r.edges === local.spg(u, v), s"pair ($u,$v)")
      }
      sym.unpersist()
    }
  }
}
