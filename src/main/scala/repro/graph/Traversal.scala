package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** The driver-side substrate that online queries search.
  *
  * Point queries run entirely on the driver over arrays collected once from the
  * Spark-built index (the paper's in-memory query phase): a CSR of `G` whose
  * landmark mask turns it into `G⁻`, the |V|×|R| label byte matrix, and the `Δ`
  * edges keyed by meta-edge. The Algorithm-4 control loop (`core.GuidedSearch`)
  * needs exactly three things from it: expand a frontier, look up a label, fetch
  * the `Δ` edges of a meta-edge. Vertices are dense indices `0 until n` in id
  * order; `indexOf` / `ids` convert.
  */
object Traversal {

  /** Label byte meaning "no label"; label distances must stay below it. */
  val NoLabel: Int = 255

  /** Mutable per-query accounting: frontier expansions run and edges they touched. */
  final class Counters {
    var levels: Int = 0
    var edgesTraversed: Long = 0L
  }

  /** One reverse walk: `from` (all at BFS depth `level` w.r.t. `depth`, where -1
    * means unvisited) back to the depth-0 root.
    */
  final case class Walk(from: Array[Int], level: Int, depth: Array[Int])

  /** A CSR of `G` over dense vertex indices, searched as `G⁻` unless [[unmasked]],
    * with the label byte matrix (row per vertex, column per landmark) and `Δ`.
    */
  final class Substrate private (val ids: Array[Long], offsets: Array[Int],
                                 targets: Array[Int], landmarks: Array[Long],
                                 labels: Array[Byte],
                                 delta: Map[(Long, Long), Array[(Long, Long)]],
                                 masked: Boolean) {

    def n: Int = ids.length
    private val numR = landmarks.length
    private val column: Map[Long, Int] = landmarks.zipWithIndex.toMap
    private val blocked: Array[Boolean] = {
      val b = new Array[Boolean](n)
      if (masked) landmarks.foreach(r => b(indexOf(r)) = true)
      b
    }

    /** Dense index of vertex `v`; -1 if `v` has no edge. */
    def indexOf(v: Long): Int = {
      val i = java.util.Arrays.binarySearch(ids, v)
      if (i >= 0) i else -1
    }

    /** The same arrays searched as `G`: no vertex is masked. */
    def unmasked: Substrate =
      if (!masked) this else new Substrate(ids, offsets, targets, landmarks, labels, delta, false)

    /** One frontier expansion: `visit(x, y)` for every edge of the searched graph
      * with `x ∈ frontier` (distinct) and `y` not masked. An empty frontier is free.
      */
    def expand(frontier: Array[Int], c: Counters)(visit: (Int, Int) => Unit): Unit =
      if (frontier.nonEmpty) {
        var touched = 0L
        var i = 0
        while (i < frontier.length) {
          val x = frontier(i)
          var k = offsets(x)
          while (k < offsets(x + 1)) {
            val y = targets(k)
            if (!blocked(y)) { touched += 1; visit(x, y) }
            k += 1
          }
          i += 1
        }
        c.levels += 1
        c.edgesTraversed += touched
      }

    /** `δ_wr` of vertex index `w` for landmark `r`, or [[NoLabel]]. */
    def label(r: Long, w: Int): Int = column.get(r).fold(NoLabel)(j => labels(w * numR + j) & 0xff)

    /** `L(v)` as landmark -> distance. */
    def labelsOf(v: Long): Map[Long, Int] = {
      val w = indexOf(v)
      if (w < 0) Map.empty
      else landmarks.iterator.map(r => r -> label(r, w)).filter(_._2 != NoLabel).toMap
    }

    /** The `Δ` edges (canonical) of canonical meta-edge `(r, r')`. */
    def deltaEdges(metaEdge: (Long, Long)): Array[(Long, Long)] =
      delta.getOrElse(metaEdge, Array.empty)

    /** Several reverse walks in lockstep: one expansion per level tick over the
      * union of the walks' frontiers, each walk keeping the edges `(x, y)` with `x`
      * in its own frontier and `depth(y) = level - 1`. Returns those edges as
      * canonical vertex-id pairs.
      */
    def walkBack(walks: Seq[Walk], c: Counters): Set[(Long, Long)] = {
      val edges = Set.newBuilder[(Long, Long)]
      var active = walks.filter(w => w.from.nonEmpty && w.level > 0).toIndexedSeq
      while (active.nonEmpty) {
        val sets = active.map(w => mutable.BitSet.empty ++= w.from)
        val prev = active.map(_ => mutable.BitSet.empty)
        expand(sets.reduce(_ | _).toArray, c) { (x, y) =>
          for (k <- active.indices)
            if (sets(k)(x) && active(k).depth(y) == active(k).level - 1) {
              edges += edge(x, y); prev(k) += y
            }
        }
        active = active.indices.collect {
          case k if active(k).level > 1 && prev(k).nonEmpty =>
            Walk(prev(k).toArray, active(k).level - 1, active(k).depth)
        }
      }
      edges.result()
    }

    /** Canonical vertex-id pair of the edge between indices `x` and `y`. */
    def edge(x: Int, y: Int): (Long, Long) =
      if (x < y) (ids(x), ids(y)) else (ids(y), ids(x))
  }

  object Substrate {

    /** Build the substrate from driver arrays.
      *
      * @param edges     undirected edges, one pair per edge
      * @param landmarks `R`, masked out of every search unless [[Substrate.unmasked]]
      * @param labels    `(v, lm, dist)` rows of `L`
      * @param delta     `(r, rp, src, dst)` rows of `Δ`, canonical
      */
    def apply(edges: Array[(Long, Long)], landmarks: Seq[Long] = Nil,
              labels: Array[(Long, Long, Int)] = Array.empty,
              delta: Array[(Long, Long, Long, Long)] = Array.empty): Substrate = {
      val arcs = edges ++ edges.map(_.swap)
      val ids = arcs.map(_._1).distinct.sorted
      def idx(v: Long): Int = java.util.Arrays.binarySearch(ids, v)
      val offsets = new Array[Int](ids.length + 1)
      arcs.foreach { case (a, _) => offsets(idx(a) + 1) += 1 }
      for (i <- 1 to ids.length) offsets(i) += offsets(i - 1)
      val fill = offsets.clone()
      val targets = new Array[Int](arcs.length)
      arcs.foreach { case (a, b) =>
        val i = idx(a); targets(fill(i)) = idx(b); fill(i) += 1
      }

      val lms = landmarks.toArray
      require(lms.forall(idx(_) >= 0), "every landmark must be a vertex of the graph")
      val column = lms.zipWithIndex.toMap
      val matrix = new Array[Byte](ids.length * lms.length)
      java.util.Arrays.fill(matrix, NoLabel.toByte)
      labels.foreach { case (v, lm, d) =>
        if (d < 0 || d >= NoLabel)
          throw new IllegalStateException(
            s"label ($v, $lm, $d): distances must lie in [0, $NoLabel) to fit a byte")
        matrix(idx(v) * lms.length + column(lm)) = d.toByte
      }

      val byMeta = delta.groupBy { case (r, rp, _, _) => (r, rp) }
        .map { case (k, rows) => k -> rows.map { case (_, _, s, d) => (s, d) } }
      new Substrate(ids, offsets, targets, lms, matrix, byMeta, masked = true)
    }
  }

  /** Load a symmetric `(src, dst)` edge DataFrame into a substrate without
    * landmarks: one Spark job.
    */
  def fromSymmetric(symEdges: DataFrame): Substrate =
    Substrate(symEdges.filter(col("src") < col("dst")).select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))))
}
