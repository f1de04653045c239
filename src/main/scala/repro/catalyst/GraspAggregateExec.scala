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

import repro.core.{AggPlan, GraspPlanner, KeyPartitioner, Mapping, MinHasher, PlannerState}
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

/** Data partition `l` merged: its destination's table and the tuples `l`'s
  * transfers moved, in total and into the destination. A recomputed
  * partition carries the same counts, so nothing is counted twice.
  */
final class MergedPartition(
    val table: StateTable,
    val received: Long,
    val receivedIntoDestination: Long,
) extends Serializable

/** Partition `index` of a [[MergeTreeRDD]]: data partition `index`, and
  * nothing else. Top-level, since an anonymous class would capture the RDD.
  */
private final class DataPartition(override val index: Int) extends Partition

/** A phased plan as one narrow RDD over the fragments' local shares, whose
  * partition `l` is data partition `l` merged at its destination.
  *
  * A transfer `s → t` of `l` reads and writes only shares of `l` (Eq. 1 /
  * Eq. 6), so task `l` reads `l`'s local share at its destination and at
  * each fragment in its transfers, which are its dependencies, and replays
  * the transfers phase by phase ([[PhasedAggregation.replay]]) with
  * [[StateTable.union]], which passes a lone table on by reference. So a
  * merge does work in proportion to the tuples it moves, and a result may
  * share tables with the local blocks, which no task changes.
  *
  * `moves(l)` holds `l`'s transfers as flat (phase, src, dst) triples in plan
  * order. It and the parent's partitions, taken on the driver (an RDD's own
  * `partitions` are transient), reach executors once per stage in the task
  * binary, which so grows as O(transfers).
  */
final class MergeTreeRDD(
    local: RDD[Array[StateTable]],
    moves: Array[Array[Int]],
    mapping: Mapping,
    ops: AggStateOps,
) extends RDD[MergedPartition](
      local.sparkContext,
      Seq(new NarrowDependency(local) {
        override def getParents(l: Int): Seq[Int] = MergeTreeRDD.fragments(moves(l), mapping(l)).toSeq
      })) {

  private val parents: Array[Partition] = local.partitions

  override def getPartitions: Array[Partition] = Array.tabulate(moves.length)(new DataPartition(_))

  override def compute(split: Partition, ctx: TaskContext): Iterator[MergedPartition] = {
    val l = split.index
    val dest = mapping(l)
    val share = new Array[StateTable](parents.length)
    MergeTreeRDD.fragments(moves(l), dest).foreach { v =>
      // Draining the iterator releases the read lock of the cached block.
      val it = firstParent[Array[StateTable]].iterator(parents(v), ctx)
      share(v) = it.next()(l)
      require(!it.hasNext, "a fragment partition holds one element")
    }
    var received = 0L
    var intoDestination = 0L
    PhasedAggregation.replay(l, moves(l), share, new StateTable(ops, 0))(_.size > 0) {
      (t, own, arriving) =>
        val tuples = arriving.map(_.size.toLong).sum
        received += tuples
        if (t == dest) intoDestination += tuples
        StateTable.union(ops, own +: arriving)
    }
    Iterator.single(new MergedPartition(share(dest), received, intoDestination))
  }
}

private object MergeTreeRDD {
  /** The fragments task `l` reads: its destination and those in its transfers. */
  def fragments(moves: Array[Int], dest: Int): Array[Int] =
    (dest +: moves.indices.filter(_ % 3 != 0).map(moves)).distinct.sorted.toArray
}

/** The one executor of phased plans: `SELECT key, aggs GROUP BY key` over
  * an RDD whose partition `v` is plan fragment `v`.
  *
  * Execution:
  *   1. partial hash aggregation per fragment into one [[StateTable]] per
  *      partition `l` of `partitioner`;
  *   2. per-(fragment, partition) cardinality + minhash statistics,
  *      collected to the driver (step 2–3 of Fig. 5);
  *   3. `plan` over those statistics (steps 4–8), replayed over which shares
  *      hold data, to check it by Eq. 6 and Eq. 7 ([[AggPlan]]);
  *   4. one [[MergeTreeRDD]] (step 9), whose task `l` runs partition `l`'s
  *      transfers, persisted by one job;
  *   5. projection of the destination tables to unsafe rows.
  *
  * So a query runs three jobs (statistics, merge, projection), or two when
  * the plan has no phases.
  *
  * SQL metrics expose the phase count, the tuples moved between fragments
  * and those received by their destination fragment (Table 2), and the
  * wall-clock of steps 1–2 together (one job), of step 3's `plan` call and
  * of step 4. The tuple counts are carried in each merged partition
  * ([[MergedPartition]]), which the merge job returns and the driver adds
  * once, so a partition that Spark recomputes does not count twice.
  */
object PhasedAggregation {

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

  /** Replays data partition `l`'s transfers, `moves` as flat (phase, src,
    * dst) triples in phase order, over `share`, its share at each fragment,
    * one phase at a time through [[AggPlan.applyPhase]].
    */
  def replay[T](l: Int, moves: Array[Int], share: Array[T], empty: T)(holds: T => Boolean)(
      merge: (Int, T, Seq[T]) => T): Unit = {
    var i = 0
    while (i < moves.length) {
      var end = i
      while (end < moves.length && moves(end) == moves(i)) end += 3
      val phase = (i until end by 3).map(k => (moves(k + 1), moves(k + 2)))
      AggPlan.applyPhase(l, phase, share, empty)(holds)(merge)
      i = end
    }
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

    // --- 1. local partial aggregation per fragment (Fig. 5 step 2): one
    // table per share.
    val local: RDD[Array[StateTable]] = rows.mapPartitions { it =>
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
      Iterator.single(shares)
    }
    local.persist(StorageLevel.MEMORY_AND_DISK)

    // --- 2. statistics: cardinality + minhash per (fragment, partition),
    // collected in partition order; a fragment's signatures come back to
    // back in one array.
    val hasher = new MinHasher()
    val statsStart = System.nanoTime()
    val statRows = local.map { shares =>
      (shares.map(_.size.toLong),
        Array.concat(shares.map(t => hasher.signature(t.keyArray, t.size)).toIndexedSeq: _*))
    }.collect()
    metrics("statisticsTime").add(millisSince(statsStart))
    val card = statRows.map(_._1)

    // --- 3. planning (steps 3-8 of Fig. 5), and each partition's transfers
    // replayed over which fragments hold data, so the plan is checked by the
    // simulator's rule.
    val planStart = System.nanoTime()
    val aggPlan = plan(PlannerState.fromStats(card, statRows.map(_._2), hasher))
    metrics("planningTime").add(millisSince(planStart))
    metrics("numPhases").add(aggPlan.numPhases)
    val builders = Array.fill(m)(Array.newBuilder[Int])
    for ((phase, k) <- aggPlan.phases.zipWithIndex; t <- phase.transfers)
      builders(t.partition).addAll(Array(k, t.src, t.dst))
    val moves = builders.map(_.result())
    val hasData = Array.tabulate(m, n)((l, v) => card(v)(l) > 0)
    for (l <- 0 until m) replay(l, moves(l), hasData(l), false)(identity)((_, _, _) => true)
    AggPlan.requireComplete(n, mapping)((v, l) => hasData(l)(v))

    // --- 4. one merge task per data partition, persisted by one job that
    // returns the tuple counts; then only its result stays cached, for the
    // projection. With no phases the projection reads the local blocks.
    val phasesStart = System.nanoTime()
    val merged = new MergeTreeRDD(local, moves, mapping, ops)
    if (aggPlan.numPhases > 0) {
      merged.persist(StorageLevel.MEMORY_AND_DISK)
      val totals = merged.map(r => (r.received, r.receivedIntoDestination)).collect()
      metrics("tuplesMoved").add(totals.map(_._1).sum)
      metrics("tuplesIntoDestinations").add(totals.map(_._2).sum)
      local.unpersist(blocking = false)
    }
    metrics("mergePhasesTime").add(millisSince(phasesStart))

    // --- 5. project the destination tables to output rows.
    val outTypes = (keyType +: specs.map(GraspAggregate.resultType)).toArray
    val numOutput = metrics("numOutputRows")
    merged.mapPartitions { it =>
      val proj = UnsafeProjection.create(outTypes)
      val row = new GenericInternalRow(1 + nSpecs)
      for (t <- it.map(_.table); e <- Iterator.range(0, t.size)) yield {
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
