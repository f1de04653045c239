package repro.catalyst

import java.util.Arrays

/** Open-addressing hash table from a primitive `Long` key to the key's
  * aggregation state: `ops.totalSlots` doubles in one flat array.
  *
  * Entries are kept densely in insertion order — entry `i` has key `key(i)`
  * and its state at `states(i * width)` — and `slots` maps a key's linear
  * probe position to its entry. The table is at most half full and doubles
  * when it would get fuller. Nothing is ever removed: a share that leaves a
  * fragment is dropped as a whole table.
  *
  * Only the code that creates a table calls [[update]] and [[mergeFrom]] on
  * it; once a table is published in an RDD block it is read-only, so RDD
  * blocks may share tables (see [[MergeTreeRDD]]).
  */
final class StateTable(ops: AggStateOps, expectedSize: Int) extends Serializable {
  val width: Int = ops.totalSlots
  private var slots = new Array[Int](StateTable.slotsFor(expectedSize)) // entry + 1; 0 = free
  private var keys = new Array[Long](slots.length / 2)
  private var vals = new Array[Double](keys.length * width)
  private var count = 0

  def size: Int = count

  def key(i: Int): Long = keys(i)

  /** The key array itself, not a copy: entry `i`'s key is at `i`, for `i`
    * below [[size]]. Callers only read it.
    */
  def keyArray: Array[Long] = keys

  /** The flat state array: entry `i`'s state starts at `i * width`. */
  def states: Array[Double] = vals

  /** Folds one input row's values into `key`'s state. */
  def update(key: Long, values: Array[Double]): Unit = {
    val e = entry(key)
    if (e >= 0) ops.update(vals, e * width, values)
    else {
      ops.init(vals, ~e * width)
      ops.update(vals, ~e * width, values)
    }
  }

  /** Merges every state of `other` into this table; `other` is only read. */
  def mergeFrom(other: StateTable): Unit = {
    var i = 0
    while (i < other.count) {
      val e = entry(other.keys(i))
      if (e >= 0) ops.merge(vals, e * width, other.vals, i * width)
      else System.arraycopy(other.vals, i * width, vals, ~e * width, width)
      i += 1
    }
  }

  /** The index of `key`'s entry, or, when the key is new, the complement of
    * the index of the entry appended for it, whose state is not yet set.
    */
  private def entry(key: Long): Int = {
    if (count == keys.length) grow()
    val mask = slots.length - 1
    var s = StateTable.hash(key) & mask
    while (slots(s) != 0) {
      val e = slots(s) - 1
      if (keys(e) == key) return e
      s = (s + 1) & mask
    }
    slots(s) = count + 1
    keys(count) = key
    count += 1
    ~(count - 1)
  }

  private def grow(): Unit = {
    slots = new Array[Int](slots.length * 2)
    keys = Arrays.copyOf(keys, slots.length / 2)
    vals = Arrays.copyOf(vals, keys.length * width)
    val mask = slots.length - 1
    var i = 0
    while (i < count) {
      var s = StateTable.hash(keys(i)) & mask
      while (slots(s) != 0) s = (s + 1) & mask
      slots(s) = i + 1
      i += 1
    }
  }
}

object StateTable {

  /** The smallest power of two that holds `expectedSize` keys at most half
    * full, and at least 4 keys.
    */
  private def slotsFor(expectedSize: Int): Int =
    Integer.highestOneBit(2 * math.max(expectedSize, 4) - 1) << 1

  /** Probe start of `key` before masking: MurmurHash3's 64-bit finalizer,
    * so keys that share their low bits (as the keys of one hash partition
    * may) still spread over the slots.
    */
  private[catalyst] def hash(key: Long): Int = {
    var h = key
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    (h ^ (h >>> 33)).toInt
  }

  /** `tables` merged key by key, reading them only. A lone non-empty input
    * is returned itself; otherwise the result is a new table sized for all
    * inputs.
    */
  def union(ops: AggStateOps, tables: Seq[StateTable]): StateTable =
    tables.filter(_.size > 0) match {
      case Seq(only) => only
      case inputs =>
        val out = new StateTable(ops, inputs.map(_.size).sum)
        inputs.foreach(out.mergeFrom)
        out
    }
}
