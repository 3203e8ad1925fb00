(** The instrumentation hook: lower layers emit through this module
    without depending on who (if anyone) collects, and a driver installs
    a {!Collector} for the duration of a traced run.

    With no collector installed every emit helper is a single [ref]
    read returning [unit] — no event is constructed, no argument list
    is forced into existence at the call sites because they guard with
    {!enabled} first — so instrumentation costs nothing on the hot
    paths of an untraced run. *)

val install : Collector.t -> unit
val uninstall : unit -> unit

val installed : unit -> Collector.t option

val enabled : unit -> bool
(** Call-site guard: build event names/args only when this is true. *)

val with_collector : Collector.t -> (unit -> 'a) -> 'a
(** Install, run, and restore whatever was installed before — even on
    exceptions. *)

val alloc_pid : name:string -> int
(** Allocate a process lane on the installed collector; [-1] when none
    is installed (emit helpers ignore events with negative pids, so a
    cached [-1] pid keeps later emissions no-ops). *)

val name_thread : pid:int -> tid:int -> string -> unit

val span :
  ?args:(string * Event.arg) list ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  unit ->
  unit

val instant :
  ?args:(string * Event.arg) list ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  unit ->
  unit

val counter :
  ?args:(string * Event.arg) list ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  value:float ->
  unit ->
  unit
