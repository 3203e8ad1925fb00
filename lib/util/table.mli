(** Plain-text table rendering for the benchmark harness.  Each bench
    section prints rows in the same shape as the paper's tables. *)

type align = Left | Right

type t

val create : ?title:string -> header:string list -> unit -> t
(** Create a table.  Every subsequent row must have as many cells as the
    header. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width does not match the header. *)

val add_rows : t -> string list list -> unit

val add_separator : t -> unit
(** A horizontal rule between row groups. *)

val render : ?align:align -> t -> string
(** Render with box-drawing in ASCII.  [align] applies to all non-header
    cells (default [Right], which suits numeric tables). *)

val print : ?align:align -> t -> unit
(** [render] to stdout followed by a newline. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float cell; defaults to 2 decimals, switching to scientific
    notation for very large or small magnitudes. *)

val cell_ratio : float -> string
(** Format as a multiplier, e.g. "1.71x". *)
