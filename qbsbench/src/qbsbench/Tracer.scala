package qbsbench

import org.apache.spark.QbsBenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** Attributes every Spark job to the repo layer that launched it (traced runs only).
  *
  * Two keys per job:
  *   - the span: which public call the benchmark was inside (`qbs`, `bibfs`,
  *     `labelling`, ...), set by [[Tracer.span]] as a Spark local property, which
  *     jobs inherit even when AQE launches them on its own threads;
  *   - the layer: for query spans, the innermost repo frame of the job's call
  *     site. SQL jobs use the call site of their SQL execution, which Spark takes
  *     on the caller's thread (stage names under AQE point at
  *     `CompletableFuture.java` and say nothing); RDD jobs (GraphX) use the
  *     long call site of their result stage.
  *
  * Job time is the union of job intervals, so overlapping jobs are counted once.
  */
final class Tracer(spark: SparkSession) extends SparkListener {
  import Tracer._

  private val sc = spark.sparkContext
  private val execStacks = mutable.HashMap.empty[Long, String]
  private val jobs = mutable.HashMap.empty[Int, Job]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  sc.addSparkListener(this)

  /** Run `f` with every job it launches tagged with span `name`. */
  def span[A](name: String)(f: => A): A = {
    sc.setLocalProperty(SpanKey, name)
    try f finally sc.setLocalProperty(SpanKey, null)
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { execStacks(e.executionId) = e.details }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val span = props.flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("other")
    val execStack = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => execStacks.get(id.toLong))
    val stack = execStack.getOrElse(
      if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).details)
    jobs(e.jobId) = new Job(span, layerOf(span, stack), e.time)
    e.stageIds.foreach(s => stageJob.getOrElseUpdate(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jobId <- stageJob.get(e.stageId); j <- jobs.get(jobId); m <- Option(e.taskMetrics)) {
      j.tasks += 1
      j.taskMs += m.executorRunTime
      j.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Totals of every job launched so far under `span`, grouped by layer. */
  def layers(span: String): Map[String, Totals] = {
    QbsBenchBus.drain(sc)
    synchronized {
      jobs.values.filter(_.span == span).groupBy(_.layer).map { case (l, js) => l -> totals(js) }
    }
  }

  /** Totals of every job launched so far under `span`, all layers together. */
  def all(span: String): Totals = {
    QbsBenchBus.drain(sc)
    synchronized(totals(jobs.values.filter(_.span == span)))
  }

  /** Forget every job recorded so far. */
  def reset(): Unit = {
    QbsBenchBus.drain(sc)
    synchronized { jobs.clear(); stageJob.clear() }
  }
}

object Tracer {
  val SpanKey = "qbsbench.span"
  val Unattributed = "unattributed"

  final class Job(val span: String, val layer: String, val start: Long) {
    var end: Long = start
    var tasks: Long = 0L
    var taskMs: Long = 0L
    var shuffleBytes: Long = 0L
  }

  /** Jobs, union of their wall intervals, tasks, executor run time, shuffle bytes. */
  final case class Totals(jobs: Long, ms: Double, tasks: Long, taskMs: Long, shuffleBytes: Long) {
    def +(o: Totals): Totals =
      Totals(jobs + o.jobs, ms + o.ms, tasks + o.tasks, taskMs + o.taskMs, shuffleBytes + o.shuffleBytes)
  }
  val Zero: Totals = Totals(0, 0, 0, 0, 0)

  private def totals(js: Iterable[Job]): Totals = {
    var covered = 0L; var reach = Long.MinValue
    for (j <- js.toSeq.sortBy(_.start)) {
      val s = math.max(j.start, reach)
      if (j.end > s) covered += j.end - s
      reach = math.max(reach, j.end)
    }
    Totals(js.size, covered.toDouble, js.map(_.tasks).sum, js.map(_.taskMs).sum,
      js.map(_.shuffleBytes).sum)
  }

  /** Layer of a job from the innermost repo frame of its call site. Frames of
    * `repro.graph.Bfs` and `repro.graph.GraphOps` are helpers and are looked
    * through; a frame of a layer class whose method is not listed here is
    * reported as unattributed rather than guessed.
    */
  def layerOf(span: String, stack: String): String = {
    val frames = stack.linesIterator.map(_.trim.takeWhile(_ != '('))
      .filter(_.startsWith("repro."))
      .map(f => (f.substring(0, f.lastIndexOf('.')), f.substring(f.lastIndexOf('.') + 1)))
      .filterNot { case (cls, _) => cls == "repro.graph.Bfs$" || cls == "repro.graph.GraphOps$" }
    if (!frames.hasNext) Unattributed
    else frames.next() match {
      case ("repro.graph.Traversal$", _) =>
        if (span == "bibfs") "baselines.BiBfs.expand" else "graph.Traversal.expand"
      case ("repro.core.GuidedSearch$", m) if m.startsWith("labelsFor") => "core.GuidedSearch.anchor_labels"
      case ("repro.core.GuidedSearch$", "run") => "core.GuidedSearch.delta_fetch"
      case ("repro.baselines.GroundTruth$", _) => "baselines.GroundTruth.fallback"
      case ("repro.core.QbS$", "query") => "core.QbS.label_fetch"
      case _ => Unattributed
    }
  }
}
