(** Calibration protocol for the {!Surrogate2d} grid: decode latency is
    a function of (batch, KV-cache length), so both axes are priced
    against the exact compile+simulate oracle and refined until the
    interpolation error is within the same budget the 1-D protocol
    enforces.

    Pricing every cache length like the 1-D path prices every batch is
    unaffordable (lengths run to the model's max position), so the
    length axis validates on {!Surrogate2d.probe_lens} — the anchor
    schedule plus every bracket midpoint — instead of the full range:
    every (probe length, batch) point is priced exactly once, each
    anchor length gets a budget-refined 1-D batch calibration
    ({!Calibration.fit}), and the worst out-of-budget probe length is
    promoted to an anchor until the whole measured grid is within
    budget.  The promotion order is deterministic, so the fitted grid —
    and every downstream JSON — is too.  CI runs
    [ascend_cli calibrate --decode] and fails when the decode model's
    max cycle error exceeds the budget. *)

type cell = {
  cl_len : int;
  cl_batch : int;
  cl_anchor : bool;   (** reproduced exactly by the fitted grid *)
  cl_exact : Surrogate.entry;
  cl_predicted : Surrogate.entry;
  cl_pct_error : float;
}

type report = {
  model : string;
  core : string;
  max_batch : int;
  max_len : int;
  budget_pct : float;
  len_anchors : int list;      (** after refinement *)
  surrogate : Surrogate2d.t;
  cells : cell list;           (** probe lengths x batches, length-major *)
  mean_abs_pct_error : float;  (** cycles, non-anchor cells; 0 if none *)
  max_abs_pct_error : float;
}

val fit :
  ?budget_pct:float ->
  model:string ->
  price:(batch:int -> cache_len:int -> (Surrogate.entry, string) result) ->
  max_batch:int ->
  max_len:int ->
  unit ->
  (Surrogate2d.t, string) result
(** Default budget 5%.  Raises [Invalid_argument] on non-positive
    bounds or a negative budget; [Error] when any point fails to
    compile. *)

val run :
  ?budget_pct:float ->
  service:Ascend_exec.Service.t ->
  core:Ascend_arch.Config.t ->
  model:string ->
  build:(batch:int -> cache_len:int -> Ascend_nn.Graph.t) ->
  max_batch:int ->
  max_len:int ->
  unit ->
  (report, string) result
(** {!fit} against the {!Calibration.price} oracle at each grid point,
    scored into a {!report}; the reported max error is within budget by
    construction and the CI gate re-checks it end to end. *)

val to_json : report -> Ascend_util.Json.t

val pp : ?verbose:bool -> unit -> Format.formatter -> report -> unit
(** One summary line; [~verbose:true] adds the per-point table. *)
