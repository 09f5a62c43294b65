package repro.msbench

/** Minimal JSON encoder for the benchmark's result line, report and span
  * files (no JSON library is on the offline classpath the benchmark may rely
  * on). Accepts maps, iterables, strings, doubles, ints, longs, booleans and
  * options.
  */
object Json {

  def encode(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.toString
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null | None => sb ++= "null"
    case Some(x)     => write(sb, x)
    case s: String   => quote(sb, s)
    case b: Boolean  => sb ++= b.toString
    case d: Double   => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case n: Int      => sb ++= n.toString
    case n: Long     => sb ++= n.toString
    case m: scala.collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(sb, k.toString); sb += ':'; write(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; write(sb, x) }
      sb += ']'
    case other        => quote(sb, other.toString)
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'           => sb ++= "\\\""
      case '\\'          => sb ++= "\\\\"
      case '\n'          => sb ++= "\\n"
      case c if c < ' '  => sb ++= f"\\u${c.toInt}%04x"
      case c             => sb += c
    }
    sb += '"'
  }
}
