package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

/** The driver-side search substrate: frontier expansion, reverse walks, labels. */
class TraversalSpec extends AnyFunSuite {

  private val s = Traversal.Substrate(Fixtures.fig4Edges.toArray)
  private def ix(vs: Long*): Array[Int] = vs.map(s.indexOf).toArray

  private def expand(frontier: Long*): (Set[(Long, Long)], Traversal.Counters) = {
    val c = new Traversal.Counters
    val out = Set.newBuilder[(Long, Long)]
    s.expand(ix(frontier: _*), c)((x, y) => out += ((s.ids(x), s.ids(y))))
    (out.result(), c)
  }

  /** BFS depths from `root` as a dense array (-1 = unvisited), optionally
    * keeping only depths `>= minDepth`.
    */
  private def depthArray(root: Long, minDepth: Int = 0): Array[Int] = {
    val d = Array.fill(s.n)(-1)
    Fixtures.fig4Local.bfs(root).foreach { case (v, k) => if (k >= minDepth) d(s.indexOf(v)) = k }
    d
  }

  test("expand returns the full neighbourhood of the frontier") {
    val (got, c) = expand(6L)
    assert(got === Set((6L, 1L), (6L, 5L), (6L, 7L)))
    assert(c.levels === 1 && c.edgesTraversed === 3)
  }

  test("expand of an empty frontier is empty and free") {
    val (got, c) = expand()
    assert(got.isEmpty)
    assert(c.levels === 0)
  }

  test("multi-vertex frontier unions neighbourhoods") {
    val (got, _) = expand(10L, 12L)
    assert(got.map(_._1) === Set(10L, 12L))
    assert(got.map(_._2) === Set(9L, 11L, 3L))
  }

  test("the landmark mask turns G into G⁻; unmasked restores G") {
    val masked = Traversal.Substrate(Fixtures.fig4Edges.toArray, Fixtures.fig4Landmarks)
    def nbrs(g: Traversal.Substrate): Set[Long] = {
      val out = Set.newBuilder[Long]
      g.expand(Array(g.indexOf(6L)), new Traversal.Counters)((_, y) => out += g.ids(y))
      out.result()
    }
    assert(nbrs(masked) === Set(5L, 7L))
    assert(nbrs(masked.unmasked) === Set(1L, 5L, 7L))
  }

  test("walkBack collects exactly the BFS-DAG edges toward the root") {
    // from {9} at depth 3 (6-7-8-9 and 6-1-2-9): both length-3 routes
    val depth = depthArray(6L)
    assert(depth(s.indexOf(9L)) === 3)
    val edges = s.walkBack(Seq(Traversal.Walk(ix(9L), 3, depth)), new Traversal.Counters)
    assert(edges === Set((8L, 9L), (7L, 8L), (6L, 7L), (2L, 9L), (1L, 2L), (1L, 6L)))
  }

  test("walkBack steps exactly one level down per tick") {
    // depths below 2 hidden: the walk from {9} takes one step, to {8, 2}, and stops
    val c = new Traversal.Counters
    val edges = s.walkBack(Seq(Traversal.Walk(ix(9L), 3, depthArray(6L, minDepth = 2))), c)
    assert(edges === Set((8L, 9L), (2L, 9L)))
    assert(edges.flatMap { case (a, b) => Set(a, b) } - 9L === Set(8L, 2L))
    assert(c.levels === 2) // the step from {9}, then the failed one from {8, 2}
  }

  test("labels are a byte matrix: 255 means none, and a distance of 255 fails loudly") {
    val rows = Fixtures.fig4Labels.toArray.flatMap { case (v, ls) =>
      ls.map { case (r, d) => (v, r, d) } }
    val g = Traversal.Substrate(Fixtures.fig4Edges.toArray, Fixtures.fig4Landmarks, rows)
    for (v <- 4L to 14L) assert(g.labelsOf(v) === Fixtures.fig4Labels(v).toMap, s"L($v)")
    assert(g.label(2L, g.indexOf(6L)) === Traversal.NoLabel)
    val e = intercept[IllegalStateException](Traversal.Substrate(Fixtures.fig4Edges.toArray,
      Fixtures.fig4Landmarks, Array((6L, 1L, 255))))
    assert(e.getMessage.contains("255"))
  }
}
