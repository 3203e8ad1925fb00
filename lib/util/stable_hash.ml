(* 64-bit FNV-1a, folded explicitly field by field so the digest is a
   stable function of the hashed values only: independent of heap layout,
   of Hashtbl seeding and of the process, and therefore usable as a
   content address that survives across runs. *)

type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let empty = fnv_offset

let byte (h : t) b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* The folds loop over a local [ref] that no closure captures, which
   ocamlopt keeps as an unboxed int64: the only allocation is the digest
   each call returns. *)
let int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
  done;
  !h

let int h v = int64 h (Int64.of_int v)
let float h v = int64 h (Int64.bits_of_float v)
let bool h v = int h (if v then 1 else 0)
let char h c = byte h (Char.code c)

let string h s =
  (* length first, so ["ab";"c"] and ["a";"bc"] fold differently *)
  let h = ref (int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := char !h (String.unsafe_get s i)
  done;
  !h

let option f h = function
  | None -> int h 0
  | Some v -> f (int h 1) v

let list f h l = List.fold_left f (int h (List.length l)) l

let pair f g h (a, b) = g (f h a) b

let hex_digits = "0123456789abcdef"

let to_hex h =
  String.init 16 (fun i ->
      hex_digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 0xf])
