package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{GuidedSearch, Sketch}
import repro.graph.Traversal

/** Search-based baseline (paper §6.1): bi-directional BFS on the FULL graph with no
  * sketch bounds, alternating sides by visited-set size, followed by the same reverse
  * search as QbS to emit all shortest-path edges.
  *
  * It is QbS's Algorithm-4 loop itself, run with an empty sketch (`d⊤ = ∞`) on an
  * unmasked substrate, so online timings compare like for like.
  */
object BiBfs {

  final case class Result(edges: Set[(Long, Long)], distance: Option[Int],
                          levels: Int, edgesTraversed: Long, millis: Double)

  /** `SPG(u, v)` on a symmetric edge DataFrame, loaded into a substrate per call. */
  def spg(gSym: DataFrame, u: Long, v: Long): Result = {
    val t0 = System.nanoTime()
    spg(Traversal.fromSymmetric(gSym), u, v).copy(millis = (System.nanoTime() - t0) / 1e6)
  }

  /** `SPG(u, v)` on a substrate already in memory, searched as `G` (unmasked). */
  def spg(g: Traversal.Substrate, u: Long, v: Long): Result = {
    val t0 = System.nanoTime()
    if (u == v) return Result(Set.empty, Some(0), 0, 0, (System.nanoTime() - t0) / 1e6)
    val r = GuidedSearch.run(g.unmasked, Sketch.empty(u, v))
    Result(r.edges, r.distance, r.levels, r.edgesTraversed, (System.nanoTime() - t0) / 1e6)
  }
}
