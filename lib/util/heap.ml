module type ORDERED = sig
  type t

  val precedes : t -> t -> bool
end

module type S = sig
  type elt
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> elt -> unit
  val peek : t -> elt option
  val pop : t -> elt option
end

module Make (O : ORDERED) = struct
  type elt = O.t
  type t = { mutable a : elt array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let length h = h.n

  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let rec up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if O.precedes h.a.(i) h.a.(p) then begin
        swap h i p;
        up h p
      end
    end

  let rec down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.n && O.precedes h.a.(l) h.a.(!m) then m := l;
    if r < h.n && O.precedes h.a.(r) h.a.(!m) then m := r;
    if !m <> i then begin
      swap h i !m;
      down h !m
    end

  let push h x =
    if h.n = Array.length h.a then begin
      let a = Array.make (max 4 (2 * h.n)) x in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    up h (h.n - 1)

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.a.(0) <- h.a.(h.n);
        down h 0
      end;
      Some top
    end
end
