package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.graph.{LocalGraph, Traversal}

/** Algorithm 4 on substrates built straight from driver arrays (no Spark build). */
class GuidedSearchSpec extends AnyFunSuite {

  test("path 0–150: an empty sketch finds SPG(10, 140), 130 hops, without a level cap") {
    val path = (0L until 150L).map(i => (i, i + 1)).toArray
    val r = GuidedSearch.run(Traversal.Substrate(path), Sketch.empty(10L, 140L))
    assert(r.distance === Some(130))
    assert(r.edges === LocalGraph(path).spg(10L, 140L))
    assert(r.edges.size === 130)
    assert(r.usedReverse && !r.usedRecover)
  }

  test("fig4: the paper's labels, meta-graph and Δ answer SPG(6,11) with Figure 6(f)") {
    val labels = Fixtures.fig4Labels.toArray.flatMap { case (v, ls) =>
      ls.map { case (r, d) => (v, r, d) } }
    val delta = Array((1L, 2L, 1L, 2L), (2L, 3L, 2L, 3L), (1L, 3L, 1L, 4L), (1L, 3L, 3L, 4L))
    val s = Traversal.Substrate(Fixtures.fig4Edges.toArray, Fixtures.fig4Landmarks, labels, delta)
    val meta = new MetaGraph(Fixtures.fig4Landmarks, Fixtures.fig4MetaEdges.toSeq)
    val r = GuidedSearch.run(s, Sketch.compute(meta, 6L, 11L, s.labelsOf(6L), s.labelsOf(11L)))
    assert(r.edges === Fixtures.fig4Spg611)
    assert(r.distance === Some(5))
    assert(r.usedReverse && r.usedRecover)
  }
}
