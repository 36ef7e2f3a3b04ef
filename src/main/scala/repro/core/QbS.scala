package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphOps, Traversal}

/** Query-by-Sketch, end to end: offline index construction (labelling + meta-graph +
  * `Δ` + sparsified graph) and online query answering (sketch + guided search).
  */
object QbS {

  /** The offline-built QbS index.
    *
    * Queries read only `meta` and `substrate`, the driver-side copy of the index
    * collected once by [[assemble]], so a query launches no Spark job. The four
    * DataFrames stay cached as the Spark-resident index that the build produced:
    * `labels` and `delta` are what index fingerprints, the Lemma-5.2 check and
    * Spark-side consumers read, and all four are what the index's storage
    * footprint is measured on.
    *
    * @param labels     cached `(v, lm, dist)` path labelling `L`
    * @param meta       driver-side meta-graph with APSP (§5.2 precomputation)
    * @param delta      cached `(r, rp, src, dst)` landmark-pair SPG segments `Δ`
    * @param gMinusSym  cached symmetric edges of `G⁻ = G[V \ R]`
    * @param edges      cached canonical edges of `G`
    * @param substrate  CSR of `G` masked to `G⁻` by `R`, label byte matrix, `Δ` by
    *                   meta-edge: what [[GuidedSearch]] searches
    */
  final case class Index(landmarks: Seq[Long], labels: DataFrame, meta: MetaGraph,
                         delta: DataFrame, gMinusSym: DataFrame, edges: DataFrame,
                         substrate: Traversal.Substrate,
                         labelEntries: Long, deltaEntries: Long, buildMillis: Double)

  /** Result of one `SPG(u, v)` query: canonical edge set plus diagnostics. */
  final case class Answer(u: Long, v: Long, edges: Set[(Long, Long)],
                          distance: Option[Int], usedReverse: Boolean,
                          usedRecover: Boolean, levels: Int, edgesTraversed: Long,
                          millis: Double)

  /** Build the index.
    *
    * @param numLandmarks `|R|` (paper default 20), picked by descending degree
    * @param parallel     multi-source labelling (QbS-P) vs per-landmark (QbS)
    */
  def build(spark: SparkSession, canonicalEdges: DataFrame, numLandmarks: Int = 20,
            parallel: Boolean = true): Index = {
    val t0 = System.nanoTime()
    val landmarks = GraphOps.topDegreeLandmarks(canonicalEdges, numLandmarks)
    val lab = Labelling.run(spark, canonicalEdges, landmarks, parallel)
    assemble(spark, canonicalEdges, lab, t0)
  }

  /** Assemble the index around an already-computed labelling (lets benches time the
    * labelling phase separately from the shared Δ/sparsify/cache phase), and collect
    * its driver-side [[Traversal.Substrate]].
    */
  def assemble(spark: SparkSession, canonicalEdges: DataFrame,
               lab: Labelling.Result, t0: Long = System.nanoTime()): Index = {
    val landmarks = lab.landmarks
    val meta = new MetaGraph(landmarks, lab.metaEdges)
    val delta = GraphOps.materialize(Labelling.delta(spark, canonicalEdges, lab))
    val gMinusSym = GraphOps.materialize(
      GraphOps.symmetric(GraphOps.sparsify(canonicalEdges, landmarks)))
    val cached = GraphOps.materialize(canonicalEdges)
    val edgeRows = cached.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    val labelRows = lab.labels.select("v", "lm", "dist").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(2)))
    val deltaRows = delta.select("r", "rp", "src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)))
    val substrate = Traversal.Substrate(edgeRows, landmarks, labelRows, deltaRows)
    Index(landmarks, lab.labels, meta, delta, gMinusSym, cached, substrate,
      labelEntries = labelRows.length, deltaEntries = deltaRows.length,
      buildMillis = (System.nanoTime() - t0) / 1e6)
  }

  /** Answer `SPG(u, v)` from the driver-side substrate, without any Spark job.
    *
    * Landmark endpoints are not covered by the labelling scheme (Def. 4.2 assigns
    * labels to `V \ R` only), so they run the same Algorithm-4 loop on the unmasked
    * `G` with `d⊤ = ∞` (an exact bi-directional BFS). Every shortest path of such a
    * pair contains a landmark, so the answer is reported as recover-only (coverage
    * "all").
    */
  def query(index: Index, u: Long, v: Long): Answer = {
    val t0 = System.nanoTime()
    if (u == v)
      return Answer(u, v, Set.empty, Some(0), usedReverse = false,
        usedRecover = false, 0, 0, (System.nanoTime() - t0) / 1e6)
    val s = index.substrate
    if (index.landmarks.contains(u) || index.landmarks.contains(v)) {
      val r = GuidedSearch.run(s.unmasked, Sketch.empty(u, v))
      return Answer(u, v, r.edges, r.distance, usedReverse = false,
        usedRecover = true, r.levels, r.edgesTraversed, (System.nanoTime() - t0) / 1e6)
    }
    val sketch = Sketch.compute(index.meta, u, v, s.labelsOf(u), s.labelsOf(v))
    val res = GuidedSearch.run(s, sketch)
    Answer(u, v, res.edges, res.distance, res.usedReverse, res.usedRecover,
      res.levels, res.edgesTraversed, (System.nanoTime() - t0) / 1e6)
  }

  /** Figure-8-style pair-coverage class of an answer: do all, some, or none of the
    * shortest paths between the pair go through a landmark? Derived from which
    * guided-search stages contributed edges (Eq. 5).
    */
  def coverage(a: Answer): String = (a.usedReverse, a.usedRecover) match {
    case (false, true) => "all"
    case (true, true)  => "some"
    case _             => "none"
  }

  /** Canonical-edge DataFrame view of an answer (for oracle checks and jobs). */
  def toDf(spark: SparkSession, answer: Answer): DataFrame = {
    import spark.implicits._
    spark.createDataset(answer.edges.toSeq).toDF("src", "dst")
  }
}
