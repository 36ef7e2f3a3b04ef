package qbsbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import repro.baselines.BiBfs
import repro.core.{Labelling, QbS}
import repro.graph.{Generators, GraphOps, LocalGraph}
import scala.collection.mutable

/** The QbS benchmark: one workload per run, timed from outside the program.
  *
  * A run sets up `SetupReps` times (generate the graph, `QbS.build`, cache the
  * symmetric edges for Bi-BFS; the first set-up warms the fresh JVM and is left
  * out of the medians), answers `WarmupPairs` untimed pairs, then for
  * `--seconds` answers seeded pairs with `QbS.query` and `BiBfs.spg` (closed
  * loop, one client). Every answer and every build is checked after the loop.
  * With `--trace 1` a [[Tracer]] attributes Spark jobs to layers, the build runs
  * as its public pieces (landmarks, labelling, assemble) so each is timed, and
  * the `Δ` join and sequential labelling are timed once. See ../../README.md.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  */
object Main {

  final case class Workload(name: String, abbrev: String, tier: Double)

  val Workloads: Seq[Workload] = Seq(
    Workload("hub-query", "WK", 0.25),
    Workload("flat-query", "OR", 0.15))

  // Pinned environment (printed on every run).
  val Cores = 2
  val ShufflePartitions = 2
  val BroadcastThreshold: Long = 10L * 1024 * 1024
  val NumLandmarks = 20
  val SetupReps = 4
  val WarmupPairs = 3

  private def now(): Long = System.nanoTime()
  private def ms(t0: Long): Double = (now() - t0) / 1e6

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workloads.find(_.name == need("workload")).getOrElse(
      sys.error(s"unknown workload ${need("workload")}; one of ${Workloads.map(_.name).mkString(", ")}"))
    Args(w, need("seed").toLong, need("seconds").toInt, need("trace") == "1")
  }

  /** One timed index build; the hashes are what repeated builds must agree on. */
  final case class Build(index: QbS.Index, seconds: Double) {
    lazy val labelsHash: Int =
      index.labels.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet.hashCode
    lazy val deltaHash: Int = index.delta.collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3))).toSet.hashCode
    def sameAs(o: Build): Boolean =
      labelsHash == o.labelsHash && deltaHash == o.deltaHash &&
        index.meta.edges == o.index.meta.edges && index.labelEntries == o.index.labelEntries &&
        index.deltaEntries == o.index.deltaEntries
  }

  final case class QueryRun(u: Long, v: Long, qbs: Either[Throwable, QbS.Answer], qbsMs: Double,
                            bibfs: Either[Throwable, BiBfs.Result], bibfsMs: Double)

  /** Tracer totals: query spans of the timed loop, build spans of the set-up. */
  final case class Trace(qLayers: Map[String, Tracer.Totals], qAll: Tracer.Totals,
                         bLayers: Map[String, Tracer.Totals], bAll: Tracer.Totals,
                         builds: Map[String, Tracer.Totals])

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val t0 = now()
    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName(s"qbsbench-${a.workload.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.default.parallelism", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", BroadcastThreshold)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val out = new Report
    out.info(f"spark session started in ${ms(t0) / 1e3}%.2f s")
    try run(spark, a, out)
    finally spark.stop()
    out.finish()
  }

  def run(spark: SparkSession, a: Args, out: Report): Unit = {
    val wl = a.workload
    val tracer = if (a.trace) Some(new Tracer(spark)) else None
    def span[A](name: String)(f: => A): A = tracer.fold(f)(_.span(name)(f))

    val rt = Runtime.getRuntime
    out.info(s"workload=${wl.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    out.info(s"env master=${spark.sparkContext.master} " +
      s"spark.sql.shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"spark.sql.autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"log=WARN heap_mb=${rt.maxMemory >> 20} nproc=${rt.availableProcessors} " +
      s"spark=${spark.version} java=${sys.props("java.version")} " +
      s"commit=${sys.props.getOrElse("qbsbench.commit", "unknown")}")

    // Inputs: the fixed analog graph, and query pairs drawn from the seed over all
    // vertices (users do not know which vertices are landmarks).
    val spec = Generators.datasets(wl.tier).find(_.abbrev == wl.abbrev).get
    val local = LocalGraph(Generators.localEdges(spec))
    val sampler = new PairSampler(local)
    def pairs(stream: Long): Iterator[(Long, Long)] = sampler.pairs(a.seed * 7919L + stream)

    // ---- build -------------------------------------------------------------------
    val buildLayerSec = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    def layerTime[A](name: String)(f: => A): A = {
      val t0 = now(); val r = span(name)(f)
      buildLayerSec.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ms(t0) / 1e3
      r
    }
    def build(edges: DataFrame): Build = {
      val t0 = now()
      if (a.trace) {
        // QbS.build's body, one public call at a time.
        val lms = layerTime("landmarks")(GraphOps.topDegreeLandmarks(edges, NumLandmarks))
        val lab = layerTime("labelling")(Labelling.run(spark, edges, lms, parallel = true))
        val idx = layerTime("assemble")(QbS.assemble(spark, edges, lab, t0))
        Build(idx, ms(t0) / 1e3)
      } else Build(QbS.build(spark, edges, NumLandmarks, parallel = true), ms(t0) / 1e3)
    }

    // ---- set-up (timed, repeated) ------------------------------------------------
    val builds = mutable.ArrayBuffer.empty[Build]
    val setupSec = mutable.ArrayBuffer.empty[Double]
    var edges: DataFrame = null
    var gSym: DataFrame = null
    for (_ <- 1 to SetupReps) {
      if (edges != null) {
        val i = builds.last.index
        Seq(i.labels, i.delta, i.gMinusSym, gSym, edges).foreach(_.unpersist(true))
      }
      val t0 = now()
      edges = span("generate")(GraphOps.materialize(Generators.edges(spark, spec, ShufflePartitions)))
      val b = build(edges)
      gSym = span("generate")(GraphOps.materialize(GraphOps.symmetric(edges)))
      setupSec += ms(t0) / 1e3
      b.labelsHash; b.deltaHash // fingerprint while the index is cached
      builds += b
    }
    val index = builds.last.index
    val landmarks = index.landmarks.toSet
    val warmSetupSec = setupSec.drop(1).toSeq
    val warmBuildSec = builds.drop(1).map(_.seconds).toSeq
    out.info(s"graph ${spec.name} (${spec.abbrev}) tier=${wl.tier} |V|=${local.numVertices} " +
      s"|E|=${local.numEdges} maxdeg=${local.vertices.iterator.map(local.degree).max} " +
      s"landmarks=${landmarks.size}; distance:share ${sampler.histogram}")

    def query(u: Long, v: Long): QueryRun = {
      val t0 = now()
      val q = try Right(span("qbs")(QbS.query(index, u, v))) catch { case e: Exception => Left(e) }
      val qMs = ms(t0)
      val t1 = now()
      val b = try Right(span("bibfs")(BiBfs.spg(gSym, u, v))) catch { case e: Exception => Left(e) }
      QueryRun(u, v, q, qMs, b, ms(t1))
    }

    // ---- warm-up (untimed, pairs from their own seed stream) ----------------------
    val warmT0 = now()
    val warm = pairs(stream = 1).take(WarmupPairs).map { case (u, v) => query(u, v) }.toList
    out.info(f"warm-up: $WarmupPairs pairs in ${ms(warmT0) / 1e3}%.2f s")
    val buildSpans = tracer.map(t => Seq("landmarks", "labelling", "assemble").map(s => s -> t.all(s)).toMap)
    tracer.foreach(_.reset())

    // ---- timed loop --------------------------------------------------------------
    val runs = mutable.ArrayBuffer.empty[QueryRun]
    val it = pairs(stream = 2)
    val loopT0 = now()
    while (ms(loopT0) < a.seconds * 1e3) {
      val (u, v) = it.next()
      runs += query(u, v)
    }
    val loopSec = ms(loopT0) / 1e3
    val traced = tracer.map { t =>
      Trace(t.layers("qbs"), t.all("qbs"), t.layers("bibfs"), t.all("bibfs"), buildSpans.get)
    }

    // ---- exactness gate (untimed) ------------------------------------------------
    var qbsFail = 0; var bibfsFail = 0
    for (r <- warm ++ runs) {
      val want = (local.spg(r.u, r.v), sampler.distance(r.u, r.v))
      def exact(name: String, got: Either[Throwable, (Set[(Long, Long)], Option[Int])]): Boolean = {
        val ok = got.contains(want)
        if (!ok) out.info(s"MISMATCH $name (${r.u}, ${r.v}): " +
          got.fold(_.toString, g => s"${g._1.size} edges d=${g._2}") + s"; want ${want._1.size} edges d=${want._2}")
        ok
      }
      if (!exact("QbS", r.qbs.map(x => (x.edges, x.distance)))) qbsFail += 1
      if (!exact("Bi-BFS", r.bibfs.map(x => (x.edges, x.distance)))) bibfsFail += 1
    }
    var buildFail = builds.count(b => !b.sameAs(builds.head))
    if (buildFail > 0) out.info(s"MISMATCH $buildFail of ${builds.size} builds differ from the first")
    val nQueries = warm.size + runs.size

    // ---- end-to-end metrics ------------------------------------------------------
    val qbsMs = runs.filter(_.qbs.isRight).map(_.qbsMs).toSeq
    val bibfsMs = runs.filter(_.bibfs.isRight).map(_.bibfsMs).toSeq
    val indexBytes = Seq(index.labels, index.delta, index.gMinusSym, index.edges).map(storageBytes(spark, _))
    out.info(f"timed loop: ${runs.size} pairs in $loopSec%.2f s; " +
      s"pairs with a landmark endpoint: ${runs.count(r => landmarks(r.u) || landmarks(r.v))}")
    out.info("QbS ms/levels: " + runs.map(r => f"${r.qbsMs}%.0f/${r.qbs.fold(_ => -1, _.levels)}").mkString(" "))
    out.info("Bi-BFS ms/levels: " + runs.map(r => f"${r.bibfsMs}%.0f/${r.bibfs.fold(_ => -1, _.levels)}").mkString(" "))
    out.info("set-up s (first is JVM-cold): " + setupSec.map(x => f"$x%.3f").mkString(" ") +
      "; build s: " + builds.map(b => f"${b.seconds}%.3f").mkString(" "))

    val e2e = Seq(
      ("setup_s", median(warmSetupSec), "s", warmSetupSec.size),
      ("build_s", median(warmBuildSec), "s", warmBuildSec.size),
      ("index_mb", indexBytes.sum / 1e6, "MB", 1),
      ("qbs_p50_ms", median(qbsMs), "ms", qbsMs.size),
      ("bibfs_p50_ms", median(bibfsMs), "ms", bibfsMs.size))

    if (!a.trace) e2e.foreach { case (n, v, u, k) => out.metric(n, v, u, k) }
    else {
      // Traced end-to-end numbers sit next to the per-layer ones: tracing overhead is
      // traced minus untraced.
      e2e.foreach { case (n, v, u, k) => out.metric(s"traced.$n", v, u, k) }
      perLayer(spark, out, tracer.get, traced.get, runs.toSeq, index, landmarks, buildLayerSec, indexBytes)
      val lemma52 = sequentialLabelling(spark, out, tracer.get, edges, builds.last)
      if (!lemma52) buildFail += 1
    }
    val nBuildChecks = builds.size + (if (a.trace) 1 else 0)
    val fails = Seq(
      ("qbs_fail_frac", qbsFail.toDouble / nQueries, nQueries),
      ("bibfs_fail_frac", bibfsFail.toDouble / nQueries, nQueries),
      ("build_fail_frac", buildFail.toDouble / nBuildChecks, nBuildChecks))
    // Failures reach the result line through `failed`; traced runs also report the
    // fractions as metrics.
    if (a.trace) fails.foreach { case (n, v, k) => out.metric(n, v, "ratio", k) }
    else out.info(fails.map { case (n, v, _) => f"$n=$v%.4f" }.mkString(" "))
    out.setCounts(attempted = 2 * nQueries + nBuildChecks, failed = qbsFail + bibfsFail + buildFail)
  }

  /** Spark storage bytes (memory + disk) of a cached DataFrame. */
  def storageBytes(spark: SparkSession, df: DataFrame): Long = {
    val rddId = df match {
      case d: org.apache.spark.sql.classic.Dataset[_] =>
        d.queryExecution.withCachedData.collectFirst {
          case r: InMemoryRelation => r.cacheBuilder.cachedColumnBuffers.id
        }
      case _ => None
    }
    rddId.flatMap(id => spark.sparkContext.getRDDStorageInfo.find(_.id == id))
      .map(i => i.memSize + i.diskSize).getOrElse(0L)
  }

  private def perLayer(spark: SparkSession, out: Report, tracer: Tracer, tr: Trace,
                       runs: Seq[QueryRun], index: QbS.Index, landmarks: Set[Long],
                       buildLayerSec: mutable.Map[String, mutable.ArrayBuffer[Double]],
                       indexBytes: Seq[Long]): Unit = {
    val n = runs.size
    val nQ = math.max(n, 1).toDouble
    val qbsWall = runs.map(_.qbsMs).sum
    val bibfsWall = runs.map(_.bibfsMs).sum

    // Query layers, per QbS (or Bi-BFS) query of the timed loop.
    for (l <- Seq("graph.Traversal.expand", "core.QbS.label_fetch", "core.GuidedSearch.anchor_labels",
                  "core.GuidedSearch.delta_fetch", "baselines.GroundTruth.fallback")) {
      val t = tr.qLayers.getOrElse(l, Tracer.Zero)
      out.metric(s"$l.jobs", t.jobs / nQ, "count", n)
      out.metric(s"$l.ms", t.ms / nQ, "ms", n)
    }
    val be = tr.bLayers.getOrElse("baselines.BiBfs.expand", Tracer.Zero)
    out.metric("baselines.BiBfs.expand.jobs", be.jobs / nQ, "count", n)
    out.metric("baselines.BiBfs.expand.ms", be.ms / nQ, "ms", n)
    out.metric("driver.ms", (qbsWall - tr.qAll.ms) / nQ, "ms", n)
    out.metric("bibfs.driver.ms", (bibfsWall - tr.bAll.ms) / nQ, "ms", n)
    val jobs = tr.qAll.jobs + tr.bAll.jobs
    val unattributed = Seq(tr.qLayers, tr.bLayers).flatMap(_.get(Tracer.Unattributed)).map(_.jobs).sum
    out.metric("unattributed.job_share", unattributed.toDouble / math.max(jobs, 1), "ratio", jobs.toInt)
    out.info(f"QbS wall ${qbsWall / nQ}%.1f ms/query = jobs ${tr.qAll.ms / nQ}%.1f + driver " +
      f"${(qbsWall - tr.qAll.ms) / nQ}%.1f; Bi-BFS wall ${bibfsWall / nQ}%.1f = jobs " +
      f"${tr.bAll.ms / nQ}%.1f + driver ${(bibfsWall - tr.bAll.ms) / nQ}%.1f")

    // Spark scheduler load per QbS query.
    out.metric("spark.tasks", tr.qAll.tasks / nQ, "count", n)
    out.metric("spark.task_ms", tr.qAll.taskMs / nQ, "ms", n)
    out.metric("spark.shuffle_mb", tr.qAll.shuffleBytes / nQ / 1e6, "MB", n)

    // Work counters from the answers.
    val answers = runs.flatMap(_.qbs.toOption)
    val nA = math.max(answers.size, 1).toDouble
    val qEdges = answers.map(_.edgesTraversed).sum.toDouble
    val spgEdges = answers.map(_.edges.size).sum.toDouble
    out.metric("qbs.levels", answers.map(_.levels).sum / nA, "count", answers.size)
    out.metric("qbs.edges_traversed", qEdges / nA, "count", answers.size)
    out.metric("qbs.spg_edges", spgEdges / nA, "count", answers.size)
    out.metric("qbs.work_ratio", qEdges / math.max(spgEdges, 1), "ratio", answers.size)
    out.metric("qbs.reverse_share", answers.count(_.usedReverse) / nA, "ratio", answers.size)
    out.metric("qbs.recover_share", answers.count(_.usedRecover) / nA, "ratio", answers.size)
    out.metric("qbs.landmark_endpoint_share",
      runs.count(r => landmarks(r.u) || landmarks(r.v)) / nQ, "ratio", n)
    val bres = runs.flatMap(_.bibfs.toOption)
    val nB = math.max(bres.size, 1).toDouble
    val bEdges = bres.map(_.edgesTraversed).sum.toDouble
    out.metric("bibfs.levels", bres.map(_.levels).sum / nB, "count", bres.size)
    out.metric("bibfs.edges_traversed", bEdges / nB, "count", bres.size)
    out.metric("bibfs.work_ratio", bEdges / math.max(bres.map(_.edges.size).sum, 1), "ratio", bres.size)

    // Build layers: median seconds over the warm set-up builds, jobs and shuffle per
    // build over all of them.
    def secs(l: String) = median(buildLayerSec(l).drop(1).toSeq)
    val lab = tr.builds("labelling"); val asm = tr.builds("assemble")
    out.metric("graph.GraphOps.landmarks.s", secs("landmarks"), "s", SetupReps - 1)
    out.metric("core.Labelling.run.s", secs("labelling"), "s", SetupReps - 1)
    out.metric("core.Labelling.run.jobs", lab.jobs.toDouble / SetupReps, "count", SetupReps)
    out.metric("core.Labelling.run.shuffle_mb", lab.shuffleBytes / 1e6 / SetupReps, "MB", SetupReps)
    out.metric("core.QbS.assemble.s", secs("assemble"), "s", SetupReps - 1)
    out.metric("core.QbS.assemble.jobs", asm.jobs.toDouble / SetupReps, "count", SetupReps)

    // The index, and driver heap after GC with it cached.
    out.metric("index.labels_mb", indexBytes(0) / 1e6, "MB", 1)
    out.metric("index.delta_mb", indexBytes(1) / 1e6, "MB", 1)
    out.metric("index.gminus_mb", indexBytes(2) / 1e6, "MB", 1)
    out.metric("index.label_entries", index.labelEntries.toDouble, "count", 1)
    out.metric("index.meta_edges", index.meta.edges.size.toDouble, "count", 1)
    out.metric("index.delta_entries", index.deltaEntries.toDouble, "count", 1)
    System.gc()
    val rt = Runtime.getRuntime
    out.metric("driver.heap_mb", (rt.totalMemory - rt.freeMemory) / 1e6, "MB", 1)
  }

  /** Traced runs only: time the `Δ` join on its own, then sequential labelling
    * (Table-2 "QbS"), which must equal the parallel labelling (Lemma 5.2).
    */
  private def sequentialLabelling(spark: SparkSession, out: Report, tracer: Tracer,
                                  edges: DataFrame, b: Build): Boolean = {
    tracer.reset()
    val t0 = now()
    val lab = Labelling.Result(b.index.landmarks, b.index.labels, b.index.meta.edges)
    val delta = tracer.span("delta")(GraphOps.materialize(Labelling.delta(spark, edges, lab)))
    out.metric("core.Labelling.delta.s", ms(t0) / 1e3, "s", 1)
    delta.unpersist(true)
    out.metric("core.Labelling.delta.shuffle_mb", tracer.all("delta").shuffleBytes / 1e6, "MB", 1)

    val t1 = now()
    val seq = tracer.span("labelling_seq")(
      Labelling.run(spark, edges, b.index.landmarks, parallel = false))
    out.metric("core.Labelling.run_seq.s", ms(t1) / 1e3, "s", 1)
    out.metric("core.Labelling.run_seq.jobs", tracer.all("labelling_seq").jobs.toDouble, "count", 1)
    def labelSet(df: DataFrame) = df.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
    val same = labelSet(seq.labels) == labelSet(b.index.labels) &&
      seq.metaEdges.toSet == b.index.meta.edges.toSet
    seq.labels.unpersist(true)
    if (!same) out.info("MISMATCH sequential labelling differs from parallel labelling (Lemma 5.2)")
    same
  }
}

/** Prints metric lines as they come and the JSON result as the last line of stdout. */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attempted = 0
  private var failed = 0

  def info(line: String): Unit = println(s"# $line")

  def metric(name: String, value: Double, unit: String, samples: Int): Unit = {
    metrics(name) = (value, unit)
    println(f"$name%-40s $value%14.4f $unit%-6s n=$samples")
  }

  def setCounts(attempted: Int, failed: Int): Unit = { this.attempted = attempted; this.failed = failed }

  def finish(): Unit = {
    def num(d: Double) = if (d.isNaN || d.isInfinite) "null" else d.toString
    val ms = metrics.map { case (n, (v, u)) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}""")
  }
}
