package repro.exec

/** The algebraic aggregates supported by the phased executor. GRASP targets
  * algebraic aggregations (§1 of the paper): each function has a partial
  * state that merges associatively, so fragments can be combined in any
  * order the planner chooses.
  */
sealed trait AggFunc
object AggFunc {
  case object Sum extends AggFunc
  case object Min extends AggFunc
  case object Max extends AggFunc
  case object Count extends AggFunc
  case object Avg extends AggFunc
}

/** One aggregate of the query: `func(input) AS alias`. `input` is ignored
  * for COUNT(*). Its merge rules live in `repro.catalyst.AggStateOps`.
  */
final case class AggSpec(func: AggFunc, input: String, alias: String)

object AggSpec {
  def sum(input: String, alias: String): AggSpec = AggSpec(AggFunc.Sum, input, alias)
  def min(input: String, alias: String): AggSpec = AggSpec(AggFunc.Min, input, alias)
  def max(input: String, alias: String): AggSpec = AggSpec(AggFunc.Max, input, alias)
  def count(alias: String): AggSpec = AggSpec(AggFunc.Count, "", alias)
  def avg(input: String, alias: String): AggSpec = AggSpec(AggFunc.Avg, input, alias)
}
