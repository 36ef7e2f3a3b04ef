package repro.core

import repro.graph.Traversal.{Counters, Substrate, Walk}
import scala.collection.mutable

/** Online phase 2 of QbS: Algorithm 4 — sketch-guided search.
  *
  * Three stages on the sparsified graph `G⁻ = G[V \ R]` (the index's driver-side
  * [[Substrate]]; no Spark job runs):
  *
  *  1. bi-directional BFS bounded by `d⊤_uv`, sides picked by Eq. (4) bounds then by
  *     visited-set size;
  *  2. reverse search from the meeting set (shortest paths inside `G⁻`);
  *  3. recover search from label anchors plus the precomputed landmark-pair SPGs `Δ`
  *     (shortest paths through landmarks).
  *
  * Which of stages 2/3 run follows Eq. (5): reverse iff the searches met
  * (`d_{G⁻} ≤ d⊤`), recover iff `d⊤` is finite and no strictly-shorter `G⁻` path
  * exists (`d_{G⁻} ≥ d⊤`).
  *
  * Bi-BFS is the same loop with an empty sketch (`d⊤ = ∞`) on an unmasked
  * substrate: Eq. (4) then reduces to picking the side with the smaller visited set.
  */
object GuidedSearch {

  /** Result of one query: canonical SPG edges, the distance (None if disconnected),
    * how the answer decomposed (for the Fig.-8-style coverage stats), and counters.
    */
  final case class Result(edges: Set[(Long, Long)], distance: Option[Int],
                          usedReverse: Boolean, usedRecover: Boolean,
                          levels: Int, edgesTraversed: Long, millis: Double)

  /** One side of the bi-directional search: BFS depths (-1 = unvisited) and the
    * vertices of each level; `d` is the number of expansions run.
    */
  private final class Side(root: Int, n: Int) {
    val depth: Array[Int] = new Array[Int](n)
    java.util.Arrays.fill(depth, -1)
    depth(root) = 0
    val layers = mutable.ArrayBuffer(Array(root))
    var visited = 1
    def d: Int = layers.size - 1
    def frontier: Array[Int] = layers.last
  }

  def run(s: Substrate, sketch: Sketch.S): Result = {
    val t0 = System.nanoTime()
    val c = new Counters
    val iu = s.indexOf(sketch.u); val iv = s.indexOf(sketch.v)
    if (iu < 0 || iv < 0) // a vertex without edges reaches nothing
      return Result(Set.empty, None, usedReverse = false, usedRecover = false, 0, 0,
        (System.nanoTime() - t0) / 1e6)
    val INF = Int.MaxValue / 4
    val dTop = sketch.dTop.getOrElse(INF)

    // --- Stage 1: bounded bi-directional BFS on G⁻ ---------------------------------
    val su = new Side(iu, s.n); val sv = new Side(iv, s.n)
    val meet = mutable.ArrayBuffer.empty[Int]
    // With d⊤ finite a side keeps expanding after the other died: the recover stage
    // anchors at depth min(σ - 1, d_t). With d⊤ = ∞ a dead side ends the search.
    def alive: Boolean =
      if (dTop < INF) su.frontier.nonEmpty || sv.frontier.nonEmpty
      else su.frontier.nonEmpty && sv.frontier.nonEmpty

    while (meet.isEmpty && su.d + sv.d < dTop && alive) {
      // pick_search: prefer sides whose sketch bound is not yet reached (Eq. 4),
      // break ties by smaller visited set; a dead frontier disqualifies a side.
      val canU = su.frontier.nonEmpty; val canV = sv.frontier.nonEmpty
      val wantU = canU && sketch.dStarU > su.d
      val wantV = canV && sketch.dStarV > sv.d
      val pickU =
        if (wantU != wantV) wantU
        else if (canU != canV) canU
        else su.visited <= sv.visited
      val (t, other) = if (pickU) (su, sv) else (sv, su)
      val next = mutable.ArrayBuffer.empty[Int]
      val dt = t.d + 1
      s.expand(t.frontier, c) { (_, w) =>
        if (t.depth(w) < 0) {
          t.depth(w) = dt
          next += w
          if (other.depth(w) >= 0) meet += w
        }
      }
      t.layers += next.toArray
      t.visited += next.size
    }

    val dU = su.d; val dV = sv.d
    val dGminus = if (meet.nonEmpty) Some(dU + dV) else None
    val distance = (dGminus, sketch.dTop) match {
      case (Some(a), Some(b)) => Some(math.min(a, b))
      case (a, b)             => a.orElse(b)
    }

    val out = mutable.Set.empty[(Long, Long)]
    // reverse walks from all stages run in lockstep: one frontier expansion per level
    val walks = mutable.ArrayBuffer.empty[Walk]

    // --- Stage 2: reverse search (paths inside G⁻) ----------------------------------
    val usedReverse = meet.nonEmpty
    if (usedReverse) {
      // All meet vertices sit at exactly (dU, dV); keep the filter as a guard.
      val m = meet.filter(x => su.depth(x) + sv.depth(x) == dU + dV).toArray
      walks += Walk(m, dU, su.depth)
      walks += Walk(m, dV, sv.depth)
    }

    // --- Stage 3: recover search (paths through landmarks) --------------------------
    val usedRecover = sketch.dTop.isDefined && dGminus.forall(_ == dTop)
    if (usedRecover) {
      def recoverSide(terminals: Map[Long, Int], t: Side): Unit =
        for ((r, sig) <- terminals) {
          val dm = math.min(sig - 1, t.d)
          val anchors = t.layers(dm).filter(w => s.label(r, w) == sig - dm)
          if (anchors.nonEmpty) {
            // forward: anchors -> r along label-decreasing G⁻ neighbours, then the
            // final hop (w, r) once δ = 1 (the label certifies the edge exists)
            var cur = anchors
            var dlt = sig - dm
            while (dlt > 1 && cur.nonEmpty) {
              val valid = mutable.BitSet.empty
              val want = dlt - 1
              s.expand(cur, c) { (a, b) =>
                if (s.label(r, b) == want) { out += s.edge(a, b); valid += b }
              }
              cur = valid.toArray
              dlt -= 1
            }
            cur.foreach(w => out += ((math.min(s.ids(w), r), math.max(s.ids(w), r))))
            // backward: anchors -> query vertex along the BFS depths
            walks += Walk(anchors, dm, t.depth)
          }
        }
      recoverSide(sketch.terminalsU, su)
      recoverSide(sketch.terminalsV, sv)

      // shortest paths between the sketch's landmarks: precomputed Δ segments
      sketch.metaEdges.foreach { case (a, b) =>
        out ++= s.deltaEdges((math.min(a, b), math.max(a, b)))
      }
    }

    out ++= s.walkBack(walks.toSeq, c)

    Result(out.toSet, distance, usedReverse, usedRecover,
      c.levels, c.edgesTraversed, (System.nanoTime() - t0) / 1e6)
  }
}
