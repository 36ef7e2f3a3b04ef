package org.apache.spark

/** Lets the benchmark wait until every posted listener event has been delivered,
  * so a traced run reads complete job and task records. `listenerBus` is
  * `private[spark]`, hence this one-line bridge in Spark's package.
  */
object QbsBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
