package org.apache.spark

/** The one Spark-internal call the benchmark needs: block until every posted
  * listener event has been delivered, so a query's job, stage and task
  * events are all in hand before the run's spans are assembled.
  */
object MsbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
