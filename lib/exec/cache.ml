(* Bounded content-addressed store: string digest -> value, LRU
   eviction, hit/miss/eviction counters.  Lookups and insertions take a
   mutex so pool workers may probe concurrently, but the execution
   service performs all accounting from the submitting domain in
   submission order, which is what keeps the counters deterministic
   run-to-run (see Service). *)

type 'v entry = { value : 'v; mutable last_use : int }

type 'v t = {
  capacity : int;
  table : (string, 'v entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create 64;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

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

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        t.tick <- t.tick + 1;
        e.last_use <- t.tick;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key value =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        t.tick <- t.tick + 1;
        Hashtbl.add t.table key { value; last_use = t.tick }
      end)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let pp_stats ppf s =
  Format.fprintf ppf "%d hit(s), %d miss(es), %d eviction(s), %d entr(ies)"
    s.hits s.misses s.evictions s.entries

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
