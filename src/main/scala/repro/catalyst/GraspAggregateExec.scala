package repro.catalyst

import java.util.concurrent.TimeUnit.NANOSECONDS

import org.apache.spark.{NarrowDependency, Partition, SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, GenericInternalRow, UnsafeProjection}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import org.apache.spark.sql.execution.metric.{SQLMetric, SQLMetrics}
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel

import repro.core.{AggPlan, GraspPlanner, KeyPartitioner, Mapping, MinHasher, Phase, PlannerState}
import repro.exec.{AggFunc, AggSpec}

/** Mutable aggregation-state algebra over flat `Array[Double]`s: every
  * method addresses one key's state as `totalSlots` doubles starting at a
  * base offset, the layout of [[StateTable]]. NaN input values are treated
  * as SQL NULLs (skipped by everything except COUNT(*)).
  */
final class AggStateOps(specs: Seq[AggSpec]) extends Serializable {
  import AggFunc._

  private val slots: Array[Int] = specs.map {
    case AggSpec(Avg, _, _) => 2
    case _                  => 1
  }.toArray
  private val offsets: Array[Int] = slots.scanLeft(0)(_ + _).init
  val totalSlots: Int = slots.sum
  private val funcs: Array[AggFunc] = specs.map(_.func).toArray

  /** Sets the state at `st(base)` to the state of no rows. */
  def init(st: Array[Double], base: Int): Unit = {
    var i = 0
    while (i < funcs.length) {
      val o = base + offsets(i)
      funcs(i) match {
        case Min => st(o) = Double.PositiveInfinity
        case Max => st(o) = Double.NegativeInfinity
        case Avg => st(o) = 0.0; st(o + 1) = 0.0
        case _   => st(o) = 0.0
      }
      i += 1
    }
  }

  /** Fold one input row's values (one per spec, NaN = NULL) into the state
    * at `st(base)`.
    */
  def update(st: Array[Double], base: Int, values: Array[Double]): Unit = {
    var i = 0
    while (i < funcs.length) {
      val o = base + offsets(i)
      val v = values(i)
      funcs(i) match {
        case Count             => st(o) += 1
        case _ if v.isNaN      => ()
        case Sum               => st(o) += v
        case Min               => if (v < st(o)) st(o) = v
        case Max               => if (v > st(o)) st(o) = v
        case Avg               => st(o) += v; st(o + 1) += 1
      }
      i += 1
    }
  }

  /** Merge the state at `b(bBase)` into the one at `a(aBase)` (associative
    * and commutative).
    */
  def merge(a: Array[Double], aBase: Int, b: Array[Double], bBase: Int): Unit = {
    var i = 0
    while (i < funcs.length) {
      val o = aBase + offsets(i)
      val p = bBase + offsets(i)
      funcs(i) match {
        case Sum | Count => a(o) += b(p)
        case Min         => if (b(p) < a(o)) a(o) = b(p)
        case Max         => if (b(p) > a(o)) a(o) = b(p)
        case Avg         => a(o) += b(p); a(o + 1) += b(p + 1)
      }
      i += 1
    }
  }

  /** Finalized value of spec `i` of the state at `st(base)` (Long for
    * COUNT, Double otherwise).
    */
  def finalValue(st: Array[Double], base: Int, i: Int): Any = {
    val o = base + offsets(i)
    funcs(i) match {
      case Count => st(o).toLong
      case Avg   => if (st(o + 1) == 0) null else st(o) / st(o + 1)
      case Min   => if (st(o).isPosInfinity) null else st(o)
      case Max   => if (st(o).isNegInfinity) null else st(o)
      case Sum   => st(o)
    }
  }
}

/** One fragment's partition of the operator's RDDs: its `m` shares, one
  * [[StateTable]] per data partition `l`, and the tuples it has received
  * in all phases so far, in total and into the shares whose destination it
  * is. The totals are part of the element, so a recomputed partition
  * carries the same counts and nothing is counted twice.
  */
final class FragmentState(
    val shares: Array[StateTable],
    val received: Long,
    val receivedIntoDestination: Long,
) extends Serializable

/** Partition `index` of a [[MergePhaseRDD]]: fragment `index`, and nothing
  * else, so a task's payload does not grow with the plan. Top-level, since
  * an anonymous class would capture the RDD.
  */
private final class FragmentPartition(override val index: Int) extends Partition

/** One GRASP phase as a narrow RDD transformation.
  *
  * Partition `p` of this RDD holds fragment `p` after the phase: a copy of
  * the parent's array of table references in which the shares sent away are
  * empty and each share that receives data is the [[StateTable.union]] of
  * its own table and the arriving ones, with the arriving tables' sizes
  * added to the fragment's running totals. Only those arriving tables are
  * read, so a phase does work in proportion to the tuples it moves; every
  * other share is passed on by reference. The dependency set is exactly the
  * phase's transfers, so the "network" of the paper becomes the
  * partition-to-partition edges of the DAG.
  *
  * The parent's partitions are taken once, on the driver, into a field of
  * this RDD, which reaches executors once per stage inside the task binary
  * (an RDD's own `partitions` are transient).
  *
  * The phases of a plan are chained and persisted, and one job on the last
  * phase materializes the whole chain: each task pulls its lineage through
  * the block manager, whose first-writer-wins block locks compute every
  * (phase, fragment) block exactly once. A task only waits for blocks of
  * earlier phases than the one it holds, so the waits cannot form a cycle.
  *
  * Invariant: no table is changed after the task that built it returns it.
  * That is what makes it safe for cached blocks of consecutive phases to
  * share tables, and for Spark to recompute any phase partition from its
  * parents.
  */
final class MergePhaseRDD(
    prev: RDD[FragmentState],
    phase: Phase,
    mapping: Mapping,
    ops: AggStateOps,
) extends RDD[FragmentState](
      prev.sparkContext,
      Seq(new NarrowDependency(prev) {
        override def getParents(pid: Int): Seq[Int] =
          pid +: phase.transfers.filter(_.dst == pid).map(_.src).distinct
      })) {

  private val parents: Array[Partition] = prev.partitions

  override def getPartitions: Array[Partition] = Array.tabulate(parents.length)(new FragmentPartition(_))

  override def compute(split: Partition, ctx: TaskContext): Iterator[FragmentState] = {
    val v = split.index
    val parent = firstParent[FragmentState]
    def fragment(u: Int): FragmentState = single(parent.iterator(parents(u), ctx))
    val own = fragment(v)
    val shares = own.shares.clone()
    val empty = new StateTable(ops, 0)
    phase.transfers.foreach(t => if (t.src == v) shares(t.partition) = empty)
    // Arriving shares, merged into the local ones (Eq. 1 / Eq. 6) in
    // ascending source order, so floating-point sums do not depend on the
    // order of the plan's transfers.
    val arriving = phase.transfers.filter(_.dst == v)
    val from = arriving.map(_.src).distinct.map(s => s -> fragment(s).shares).toMap
    var received = own.received
    var intoDestination = own.receivedIntoDestination
    arriving.groupBy(_.partition).foreach { case (l, in) =>
      val tables = in.sortBy(_.src).map(t => from(t.src)(l))
      val tuples = tables.map(_.size.toLong).sum
      received += tuples
      if (mapping(l) == v) intoDestination += tuples
      shares(l) = StateTable.union(ops, shares(l) +: tables)
    }
    Iterator.single(new FragmentState(shares, received, intoDestination))
  }

  /** The one element of a parent partition. Draining the iterator releases
    * the read lock of a cached block.
    */
  private def single(it: Iterator[FragmentState]): FragmentState = {
    val fragment = it.next()
    require(!it.hasNext, "a fragment partition holds one element")
    fragment
  }
}

/** The one executor of phased plans: `SELECT key, aggs GROUP BY key` over
  * an RDD whose partition `v` is plan fragment `v`.
  *
  * Execution:
  *   1. partial hash aggregation per fragment into one [[StateTable]] per
  *      partition `l` of `partitioner`;
  *   2. per-(fragment, partition) cardinality + minhash statistics,
  *      collected to the driver (step 2–3 of Fig. 5);
  *   3. `plan` over those statistics (steps 4–8), replayed on the driver to
  *      check that it leaves every share at its destination (Eq. 7);
  *   4. one [[MergePhaseRDD]] per phase (step 9), chained and persisted,
  *      and one job over the chain that materializes every phase on the
  *      way to the last, computing each share exactly once;
  *   5. projection of the final tables to unsafe rows.
  *
  * So a query runs three jobs (statistics, merge, projection), or two when
  * the plan has no phases.
  *
  * SQL metrics expose the phase count, the tuples moved between fragments
  * and those received by their destination fragment (Table 2), and the
  * wall-clock of steps 1–2 together (one job), of step 3's `plan` call and
  * of step 4. The tuple counts are the running totals each fragment carries
  * through the phases ([[FragmentState]]), which the merge job returns and
  * the driver adds once, so a phase partition that Spark recomputes does
  * not count twice.
  */
object PhasedAggregation {

  /** The paper's 100-hash minhash family, used for the statistics. */
  val Hasher: MinHasher = new MinHasher(MinHasher.PaperHashes, seed = 42)

  /** The SQL metrics [[execute]] updates, by name. */
  def metrics(sc: SparkContext): Map[String, SQLMetric] = Map(
    "numPhases"   -> SQLMetrics.createMetric(sc, "GRASP phases"),
    "tuplesMoved" -> SQLMetrics.createMetric(sc, "tuples moved between fragments"),
    "tuplesIntoDestinations" -> SQLMetrics.createMetric(sc, "tuples into their destination"),
    "numOutputRows" -> SQLMetrics.createMetric(sc, "number of output rows"),
    "statisticsTime" -> SQLMetrics.createTimingMetric(sc, "GRASP local aggregation and statistics time"),
    "planningTime" -> SQLMetrics.createTimingMetric(sc, "GRASP planning time"),
    "mergePhasesTime" -> SQLMetrics.createTimingMetric(sc, "GRASP merge job time (all phases)"),
  )

  private def toDouble(row: InternalRow, ord: Int, dt: DataType): Double =
    if (ord < 0 || row.isNullAt(ord)) Double.NaN
    else dt match {
      case DoubleType  => row.getDouble(ord)
      case FloatType   => row.getFloat(ord).toDouble
      case LongType    => row.getLong(ord).toDouble
      case IntegerType => row.getInt(ord).toDouble
      case ShortType   => row.getShort(ord).toDouble
      case ByteType    => row.getByte(ord).toDouble
      case d: DecimalType => row.getDecimal(ord, d.precision, d.scale).toDouble
      case other => throw new IllegalArgumentException(s"unsupported aggregate input type $other")
    }

  /** Runs the phases before it returns; the projection runs when the
    * returned rows `(key, agg1, agg2 …)` are consumed, so no metric times it.
    */
  def execute(
      rows: RDD[InternalRow],
      schema: StructType,
      keyName: String,
      specs: Seq[AggSpec],
      partitioner: KeyPartitioner,
      mapping: Mapping,
      plan: PlannerState => AggPlan,
      metrics: Map[String, SQLMetric],
  ): RDD[InternalRow] = {
    require(specs.nonEmpty, "need at least one aggregate")
    val keyOrd = schema.fieldIndex(keyName)
    val keyType = schema(keyOrd).dataType
    require(keyType == LongType || keyType == IntegerType,
      s"GROUP BY key must be integral, got $keyType")
    val inOrds = specs.map {
      case AggSpec(AggFunc.Count, _, _) => -1
      case s => schema.fieldIndex(s.input)
    }.toArray
    val inTypes = inOrds.map(o => if (o < 0) NullType else schema(o).dataType)
    require(mapping.numPartitions == partitioner.numPartitions, "mapping/partitioner mismatch")

    val ops = new AggStateOps(specs)
    val n = rows.getNumPartitions
    val m = partitioner.numPartitions
    val nSpecs = specs.size
    val keyIsLong = keyType == LongType
    def millisSince(start: Long): Long = NANOSECONDS.toMillis(System.nanoTime() - start)

    // --- 1. local partial aggregation per fragment (Fig. 5 step 2).
    val local: RDD[FragmentState] = rows.mapPartitions { it =>
      val shares = Array.fill(m)(new StateTable(ops, 0))
      val values = new Array[Double](nSpecs)
      it.foreach { row =>
        if (!row.isNullAt(keyOrd)) {
          val key = if (keyIsLong) row.getLong(keyOrd) else row.getInt(keyOrd).toLong
          var i = 0
          while (i < nSpecs) { values(i) = toDouble(row, inOrds(i), inTypes(i)); i += 1 }
          shares(partitioner.partitionOf(key)).update(key, values)
        }
      }
      Iterator.single(new FragmentState(shares, 0L, 0L))
    }
    local.persist(StorageLevel.MEMORY_AND_DISK)

    // --- 2. statistics: cardinality + minhash per (fragment, partition),
    // collected in partition order.
    val hasher = Hasher
    val statsStart = System.nanoTime()
    val statRows = local.map { f =>
      (f.shares.map(_.size.toLong), f.shares.map(t => hasher.signature(Iterator.tabulate(t.size)(t.key))))
    }.collect()
    metrics("statisticsTime").add(millisSince(statsStart))
    val card = statRows.map(_._1)
    val sigs = statRows.map(_._2)

    // --- 3. planning (steps 3-8 of Fig. 5), and the plan replayed on the
    // statistics to check that every share ends at its destination.
    val planStart = System.nanoTime()
    val aggPlan = plan(PlannerState.fromStats(card, sigs, hasher))
    metrics("planningTime").add(millisSince(planStart))
    metrics("numPhases").add(aggPlan.numPhases)
    val replay = PlannerState.fromStats(card, sigs, hasher)
    aggPlan.transfers.foreach(t => replay.update(t.src, t.dst, t.partition))
    for (l <- 0 until m; v <- 0 until n if v != mapping(l))
      require(!replay.hasData(v, l),
        s"plan incomplete: fragment $v still holds partition $l, whose destination is ${mapping(l)}")

    // --- 4. one narrow merge step per phase, all persisted and materialized
    // by one job on the last phase, which returns every fragment's totals.
    // Once it has run, only the last phase stays cached, for the projection.
    val phasesStart = System.nanoTime()
    val chain = aggPlan.phases.scanLeft(local) { (prev, phase) =>
      new MergePhaseRDD(prev, phase, mapping, ops).persist(StorageLevel.MEMORY_AND_DISK)
    }
    val state = chain.last
    if (chain.length > 1) {
      val totals = state.map(f => (f.received, f.receivedIntoDestination)).collect()
      metrics("tuplesMoved").add(totals.map(_._1).sum)
      metrics("tuplesIntoDestinations").add(totals.map(_._2).sum)
      chain.init.foreach(_.unpersist(blocking = false))
    }
    metrics("mergePhasesTime").add(millisSince(phasesStart))

    // --- 5. project the destination tables to output rows.
    val outTypes = (keyType +: specs.map(GraspAggregate.resultType)).toArray
    val numOutput = metrics("numOutputRows")
    state.mapPartitions { it =>
      val proj = UnsafeProjection.create(outTypes)
      val row = new GenericInternalRow(1 + nSpecs)
      for (f <- it; t <- f.shares.iterator; e <- Iterator.range(0, t.size)) yield {
        val k = t.key(e)
        if (keyIsLong) row.update(0, k) else row.update(0, k.toInt)
        var i = 0
        while (i < nSpecs) { row.update(1 + i, ops.finalValue(t.states, e * t.width, i)); i += 1 }
        numOutput.add(1)
        proj.apply(row).copy()
      }
    }
  }
}

/** Physical operator executing `GROUP BY key` with GRASP-scheduled partition
  * merges (the reproduction target: "a custom Catalyst physical operator …
  * that reorders partition merges based on distribution similarity"). Each
  * child partition is a fragment; [[PhasedAggregation]] runs the query
  * all-to-all, keys hashed over the fragments, on a GRASP plan.
  */
final case class GraspAggregateExec(
    keyName: String,
    specs: Seq[AggSpec],
    outputAttrs: Seq[Attribute],
    child: SparkPlan,
) extends UnaryExecNode {

  override def output: Seq[Attribute] = outputAttrs

  // The aggregate result attributes are minted by this operator (only the
  // key flows through from the child).
  override def producedAttributes: org.apache.spark.sql.catalyst.expressions.AttributeSet =
    org.apache.spark.sql.catalyst.expressions.AttributeSet(
      outputAttrs.filterNot(a => child.output.exists(_.exprId == a.exprId)))

  override lazy val metrics: Map[String, SQLMetric] = PhasedAggregation.metrics(sparkContext)

  override protected def withNewChildInternal(newChild: SparkPlan): GraspAggregateExec =
    copy(child = newChild)

  override protected def doExecute(): RDD[InternalRow] = {
    val rows = child.execute()
    val n = rows.getNumPartitions
    if (n == 0) return sparkContext.emptyRDD[InternalRow]
    // The operator has no real network, so the bandwidth matrix is uniform.
    val grasp = (stats: PlannerState) =>
      new GraspPlanner(stats, Array.fill(n, n)(1.0), Mapping.allToAll(n), tupleBytes = 16.0).plan()
    PhasedAggregation.execute(rows, child.schema, keyName, specs,
      KeyPartitioner.Hashed(n), Mapping.allToAll(n), grasp, metrics)
  }
}
