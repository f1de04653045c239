package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** `SparkContext.listenerBus` is `private[spark]`. Listener events arrive
  * asynchronously, so the benchmark drains the bus before it reads what its
  * listener recorded about a finished query.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
