package repro.core

/** Plan representation from §2 of the paper.
  *
  * An aggregation plan `P = {P_1 … P_n}` is a sequence of phases executed in
  * serial order; each phase is a set of concurrent transfers `s → t` of one
  * data partition `l`. In the all-to-one special case there is a single
  * partition (`l = 0`) whose destination is the coordinator fragment.
  */
final case class Transfer(src: Int, dst: Int, partition: Int) {
  require(src != dst, s"self transfer $src -> $dst")
  override def toString: String = s"$src->$dst[l=$partition]"
}

/** One phase's concurrent transfers. That no node both sends and receives
  * the same partition is every plan's rule ([[AggPlan.applyPhase]]).
  */
final case class Phase(transfers: Vector[Transfer]) {
  def size: Int = transfers.size
}

final case class AggPlan(phases: Vector[Phase]) {
  def numPhases: Int = phases.size
  def numTransfers: Int = phases.iterator.map(_.size).sum
  def transfers: Iterator[Transfer] = phases.iterator.flatMap(_.transfers)
}

/** What a phase does to the shares (Eq. 1 / Eq. 6) and when a plan is done
  * (Eq. 2 / Eq. 7): the one definition of a valid plan, for the simulator,
  * the operator and the planner alike.
  */
object AggPlan {

  /** Applies one phase's transfers of partition `l`, `moves` as (src, dst)
    * pairs, to `share`, l's share at each fragment. Every sender must hold
    * data, send once and not receive in the phase. Each receiver `t` gets
    * `merge(t, own, arriving)`, arrivals in ascending source order, so sums
    * do not depend on the plan's order; senders are left `empty`.
    */
  def applyPhase[T](l: Int, moves: Seq[(Int, Int)], share: Array[T], empty: T)(holds: T => Boolean)(
      merge: (Int, T, Seq[T]) => T): Unit = {
    val senders = moves.map(_._1).toSet
    val sent = scala.collection.mutable.Set.empty[Int]
    for ((s, t) <- moves) {
      val tr = Transfer(s, t, l)
      require(holds(share(s)), s"$tr: sender share is empty")
      require(sent.add(s), s"$tr: share already sent in the same phase")
      require(!senders(t), s"$tr: receiver also sends partition $l in the same phase")
    }
    moves.sortBy(_._1).groupBy(_._2).foreach { case (t, in) =>
      share(t) = merge(t, share(t), in.map(m => share(m._1)))
    }
    moves.foreach { case (s, _) => share(s) = empty }
  }

  /** The first share, as (fragment, partition), that `holds` data away from
    * its destination; none once the plan is complete.
    */
  def stray(nFragments: Int, mapping: Mapping)(holds: (Int, Int) => Boolean): Option[(Int, Int)] =
    (0 until mapping.numPartitions).iterator
      .flatMap(l => (0 until nFragments).iterator.filter(v => v != mapping(l) && holds(v, l)).map((_, l)))
      .nextOption()

  /** Rejects the plan when [[stray]] finds a share. */
  def requireComplete(nFragments: Int, mapping: Mapping)(holds: (Int, Int) => Boolean): Unit =
    for ((v, l) <- stray(nFragments, mapping)(holds)) throw new IllegalArgumentException(
      s"plan incomplete: fragment $v still holds partition $l, whose destination is ${mapping(l)}")
}

/** The all-to-all destination mapping `M : L → V_C` (§2.2).
  *
  * `destinationOf(l)` is the fragment that must hold partition `l` when the
  * aggregation completes. All-to-one is the special case of a single
  * partition (§4.3.3).
  */
final case class Mapping(destinationOf: Vector[Int]) {
  def numPartitions: Int = destinationOf.size
  def apply(l: Int): Int = destinationOf(l)
}

object Mapping {
  /** All-to-one: one partition, aggregated at `dest`. */
  def allToOne(dest: Int): Mapping = Mapping(Vector(dest))

  /** All-to-all with results evenly balanced: partition l → fragment l
    * (§5.1: "aggregation results are evenly balanced across all nodes").
    */
  def allToAll(nFragments: Int): Mapping = Mapping(Vector.tabulate(nFragments)(identity))
}
