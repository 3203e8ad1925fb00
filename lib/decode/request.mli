(** A generation request: a prompt to prefill, then [output_len] tokens
    to decode.  Arrival times and both length streams are seeded draws
    ({!of_load_gen}), so a decode trace is a pure function of its spec. *)

type t = {
  id : int;
  arrival_s : float;
  prompt_len : int;   (** tokens prefilled into the KV cache *)
  output_len : int;   (** tokens generated (the first comes out of prefill) *)
}

type outcome =
  | Completed
  | Shed
      (** Rejected at admission: the request could never fit — its KV
          cache alone overflows the engine's HBM budget, or
          [prompt_len + output_len] exceeds the model's max position. *)

type record = {
  request : t;
  outcome : outcome;
  admit_s : float;        (** prefill start *)
  first_token_s : float;  (** prefill finish — the first output token *)
  finish_s : float;       (** last token *)
  itl_s : float array;
      (** inter-token gaps in token order, [output_len - 1] entries
          (none when shed); the engine writes each in place as its
          token is decoded *)
}

val shed : t -> record

val ttft_s : record -> float
(** Time to first token: [first_token_s - arrival_s]. *)

val tokens : record -> int
(** Tokens actually generated: [output_len] when completed, 0 when shed. *)

val of_load_gen :
  gen:Ascend_serving.Load_gen.t ->
  prompt:Ascend_serving.Load_gen.length_dist ->
  output:Ascend_serving.Load_gen.length_dist ->
  t list
(** One request per arrival of [gen], prompt and output lengths drawn
    from their distributions under seeds derived from [gen]'s — three
    independent streams, one spec. *)

val validate : t -> unit
(** Raises [Invalid_argument] on a non-positive prompt or output
    length. *)
