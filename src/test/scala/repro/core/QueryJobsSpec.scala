package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{Fixtures, SparkSpec}
import repro.baselines.BiBfs
import repro.graph.GraphOps

/** Queries run on the driver: QbS launches no Spark job, Bi-BFS on a DataFrame one. */
class QueryJobsSpec extends SparkSpec {

  private val Tag = "repro.test.jobs"

  /** Spark jobs launched by `f` on this thread. */
  private def jobsOf(f: => Unit): Int = {
    val sc = spark.sparkContext
    val n = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(Tag) != null)) n.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(Tag, "1")
    try { f; ListenerBusDrain(sc); n.get }
    finally { sc.setLocalProperty(Tag, null); sc.removeSparkListener(listener) }
  }

  private lazy val fig4 = GraphOps.materialize(Fixtures.fig4Df(spark))

  test("the job counter sees a Spark job") {
    assert(jobsOf(fig4.count()) >= 1)
  }

  test("QbS.query launches no Spark job, landmark endpoints included") {
    val idx = QbS.build(spark, fig4, numLandmarks = 3)
    val pairs = Seq((6L, 11L), (5L, 12L), (8L, 9L), (4L, 14L), (1L, 11L), (2L, 3L), (7L, 7L))
    assert(jobsOf(pairs.foreach { case (u, v) => QbS.query(idx, u, v) }) === 0)
  }

  test("BiBfs.spg on a DataFrame launches at most one Spark job") {
    val sym = GraphOps.materialize(GraphOps.symmetric(fig4))
    assert(jobsOf(BiBfs.spg(sym, 6L, 11L)) <= 1)
    sym.unpersist()
  }
}
