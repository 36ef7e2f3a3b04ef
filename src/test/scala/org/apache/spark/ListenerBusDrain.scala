package org.apache.spark

/** Lets a test wait until every posted listener event has been delivered, so a
  * `SparkListener` has seen every job launched so far. `listenerBus` is
  * `private[spark]`, hence this bridge in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
