(* Bounded content-addressed store: string digest -> value, LRU
   eviction, hit/miss/eviction counters.  Lookups and insertions take a
   mutex so pool workers may probe concurrently, but the execution
   service performs all accounting from the submitting domain in
   submission order, which is what keeps the counters deterministic
   run-to-run (see Service).

   Optional disk tier: with [dir] set, the cache indexes the directory's
   entries at creation (names only — values load lazily), probes it on
   a memory miss, and {!flush} writes every entry added since the last
   flush as one file per key (tmp + rename, so a reader never sees a
   torn entry).  Values go through [Marshal]; a file that fails to
   unmarshal (truncated, or written by a binary with different value
   types) is dropped from the index and counts as a miss, never an
   error.  Memory hits and disk hits are counted separately so the two
   tiers stay distinguishable in metrics. *)

type 'v entry = { value : 'v; mutable last_use : int }

type 'v t = {
  capacity : int;
  table : (string, 'v entry) Hashtbl.t;
  mutex : Mutex.t;
  dir : string option;
  on_disk : (string, unit) Hashtbl.t;
  mutable dirty : (string * string) list;  (* (key, marshaled), newest first *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable disk_hits : int;
  mutable disk_writes : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  disk_hits : int;
  disk_writes : int;
  disk_entries : int;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let entry_file dir key = Filename.concat dir key

let create ?(capacity = 4096) ?dir () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  let on_disk = Hashtbl.create 64 in
  (match dir with
  | None -> ()
  | Some d ->
    mkdir_p d;
    Array.iter
      (fun name ->
        if
          (not (Filename.check_suffix name ".tmp"))
          && not (Sys.is_directory (entry_file d name))
        then Hashtbl.replace on_disk name ())
      (try Sys.readdir d with Sys_error _ -> [||]));
  {
    capacity;
    table = Hashtbl.create 64;
    mutex = Mutex.create ();
    dir;
    on_disk;
    dirty = [];
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    disk_hits = 0;
    disk_writes = 0;
  }

let capacity t = t.capacity
let dir t = t.dir

let locked t f = Mutex.protect t.mutex f

let evict_lru t =
  (* linear scan; eviction is rare (capacity-bound) and the table is at
     most [capacity] entries *)
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, lu) when lu <= e.last_use -> ()
      | _ -> victim := Some (k, e.last_use))
    t.table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1
  | None -> ()

(* insert without counting: promotion of a disk entry into memory *)
let insert t key value =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.add t.table key { value; last_use = t.tick }
  end

let load_from_disk t key =
  match t.dir with
  | None -> None
  | Some d when Hashtbl.mem t.on_disk key -> (
    let path = entry_file d key in
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Marshal.from_channel ic)
    with
    | v -> Some v
    | exception _ ->
      (* truncated or type-incompatible entry: forget it *)
      Hashtbl.remove t.on_disk key;
      None)
  | Some _ -> None

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        t.tick <- t.tick + 1;
        e.last_use <- t.tick;
        t.hits <- t.hits + 1;
        Some e.value
      | None -> (
        match load_from_disk t key with
        | Some v ->
          t.disk_hits <- t.disk_hits + 1;
          insert t key v;
          Some v
        | None ->
          t.misses <- t.misses + 1;
          None))

let add t key value =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        insert t key value;
        (* marshal now, not at flush: LRU eviction must never lose a
           dirty entry.  Values are closure-free plain data (compiled
           programs + simulator reports). *)
        if
          t.dir <> None
          && (not (Hashtbl.mem t.on_disk key))
          && not (List.mem_assoc key t.dirty)
        then t.dirty <- (key, Marshal.to_string value []) :: t.dirty
      end)

let flush t =
  locked t (fun () ->
      match t.dir with
      | None -> t.dirty <- []
      | Some d ->
        List.iter
          (fun (key, bytes) ->
            let path = entry_file d key in
            (* tmp + rename: concurrent processes may race on the same
               key, but both write identical content-addressed bytes *)
            let tmp = path ^ ".tmp" in
            (try
               let oc = open_out_bin tmp in
               Fun.protect
                 ~finally:(fun () -> close_out_noerr oc)
                 (fun () -> output_string oc bytes);
               Sys.rename tmp path;
               Hashtbl.replace t.on_disk key ();
               t.disk_writes <- t.disk_writes + 1
             with Sys_error _ -> ()))
          (List.rev t.dirty);
        t.dirty <- [])

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        disk_hits = t.disk_hits;
        disk_writes = t.disk_writes;
        disk_entries = Hashtbl.length t.on_disk;
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "%d memory hit(s), %d disk hit(s), %d miss(es), %d eviction(s), %d \
     entr(ies) in memory; disk tier: %d write(s), %d file(s)"
    s.hits s.disk_hits s.misses s.evictions s.entries s.disk_writes
    s.disk_entries

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.dirty <- [];
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.disk_hits <- 0;
      t.disk_writes <- 0)
