(** Compatibility name for {!Run.report}. {!Run} is the only runtime
    entry point; this module survives because the repository benchmark
    ([perfbench/bench.ml]) names the report type as
    [Galois.Runtime.report], and the benchmark's sources change only
    together with the benchmark itself. *)

type report = Run.report = {
  stats : Stats.t;
  schedule : Schedule.t option;
  trace : Obs.stamped list option;
  audit : Audit.report option;
}
