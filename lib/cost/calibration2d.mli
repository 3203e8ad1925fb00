(** Calibration protocol for the {!Surrogate2d} grid: decode latency is
    a function of (batch, KV-cache length), priced against the exact
    compile+simulate oracle ({!Calibration.price}).

    Every row of the grid holds the exact price of each batch in
    [1 .. max_batch], so only the length axis is interpolated.  Pricing
    every cache length is unaffordable (lengths run to the model's max
    position), so the length axis validates on
    {!Surrogate2d.probe_lens} — the anchor schedule plus every bracket
    midpoint: every (probe length, batch) point is priced exactly once,
    and the worst out-of-budget probe length is promoted to an anchor
    until the whole measured grid is within budget.  The promotion
    order is deterministic, so the fitted grid — and every downstream
    JSON — is too. *)

type cell = {
  cl_len : int;
  cl_batch : int;
  cl_anchor : bool;   (** an anchor row's exact entry *)
  cl_exact : Calibration.entry;
  cl_predicted : Calibration.entry;
  cl_pct_error : float;
}

type report = {
  model : string;
  core : string;
  max_batch : int;
  max_len : int;
  budget_pct : float;
  len_anchors : int list;      (** after refinement *)
  cells : cell list;           (** probe lengths x batches, length-major *)
  mean_abs_pct_error : float;  (** cycles, non-anchor cells; 0 if none *)
  max_abs_pct_error : float;
}

val fit :
  ?budget_pct:float ->
  price:(batch:int -> cache_len:int -> (Calibration.entry, string) result) ->
  max_batch:int ->
  max_len:int ->
  unit ->
  (Surrogate2d.t, string) result
(** Default budget 5%.  Raises [Invalid_argument] on non-positive
    bounds or a negative budget; [Error] when any point fails to
    compile (the first failure, in probe order). *)

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
(** {!fit} against the {!Calibration.price} oracle, its grid scored
    into a {!report} against the prices [fit] took.  The reported max
    error is within budget by construction.  Raises and fails as
    {!fit}. *)

val to_json : report -> Ascend_util.Json.t

val pp : ?verbose:bool -> unit -> Format.formatter -> report -> unit
(** One summary line; [~verbose:true] adds the per-point table. *)
