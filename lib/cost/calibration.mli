(** Calibration protocol for the {!Surrogate}: fit a per-model table
    from anchor batches priced through the exact compile+simulate path,
    then replay {e every} batch in [1 .. max_batch] through both tiers
    and report the surrogate's error against the oracle.

    The error metric is the absolute percentage error on total cycles —
    the number the serving loop actually schedules on — computed with
    {!Ascend_util.Stats.mean_abs_pct_error} /
    {!Ascend_util.Stats.max_abs_pct_error} over the {b non-anchor}
    batches (anchors reproduce exactly by construction, so including
    them would only dilute the mean).  CI runs
    [ascend_cli calibrate --all] and fails when any zoo model's max
    error exceeds the 5% budget.

    Piecewise-linear interpolation on the geometric anchor schedule
    alone is not enough: tiling boundaries make [cycles(batch)] step
    rather than slope on some model/core combinations (a batch-3 FC
    rounds up to the same cube tile as batch 4, a batch-5 conv pays a
    fresh one).  Calibration therefore {b refines} the anchor set to
    the error budget: every batch is priced once, interpolation error
    is measured, and the worst offending batch is promoted to an anchor
    until the max error is within budget (anchors reproduce exactly, so
    the loop terminates).  Smooth models keep the sparse geometric
    schedule; steppy ones buy exactly the anchors they need.  The
    promotion order (worst error first, smallest batch on ties) is
    deterministic, so the fitted table — and every downstream JSON — is
    too. *)

type row = {
  batch : int;
  anchor : bool;
  exact : Surrogate.entry;      (** Tier B: compile + simulate *)
  predicted : Surrogate.entry;  (** Tier A: interpolated *)
  cycles_pct_error : float;
}

type report = {
  model : string;
  core : string;
  max_batch : int;
  budget_pct : float;
  anchors : int list;             (** after refinement *)
  surrogate : Surrogate.t;
  rows : row list;                (** batches 1 .. max_batch, in order *)
  mean_abs_pct_error : float;     (** cycles, non-anchor rows; 0 if none *)
  max_abs_pct_error : float;
}

val price :
  service:Ascend_exec.Service.t ->
  core:Ascend_arch.Config.t ->
  Ascend_nn.Graph.t ->
  (Surrogate.entry, string) result
(** The exact oracle: compile+simulate the graph on [core] through
    [service] (so repeated group shapes resolve in its cache). *)

val fit :
  ?budget_pct:float ->
  model:string ->
  price:(batch:int -> (Surrogate.entry, string) result) ->
  max_batch:int ->
  unit ->
  (Surrogate.t, string) result
(** Price batches [1 .. max_batch] once each, start from
    {!Surrogate.anchor_batches}, and promote the worst-error batch to an
    anchor until every batch's cycle error is within [budget_pct]
    (default 5).  Raises [Invalid_argument] on [max_batch < 1] or a
    negative budget; [Error] when any batch fails to compile. *)

val run :
  ?budget_pct:float ->
  service:Ascend_exec.Service.t ->
  core:Ascend_arch.Config.t ->
  model:string ->
  build:(batch:int -> Ascend_nn.Graph.t) ->
  max_batch:int ->
  unit ->
  (report, string) result
(** {!fit} against the {!price} oracle, scored into a {!report}.  The
    reported max error is within [budget_pct] by construction — the CI
    gate re-checks it end to end.  No fused group recurs across batch
    sizes, so after pricing each batch [service]'s cache and counters
    are cleared.  Raises [Invalid_argument] on [max_batch < 1]; [Error]
    when any batch fails to compile. *)

val to_json : report -> Ascend_util.Json.t

val pp : ?verbose:bool -> unit -> Format.formatter -> report -> unit
(** One summary line; [~verbose:true] adds the per-batch table. *)
