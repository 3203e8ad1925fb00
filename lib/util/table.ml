type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string option;
  header : string list;
  width : int;
  mutable rows : row list; (* reversed *)
}

let create ?title ~header () =
  if header = [] then invalid_arg "Table.create: empty header";
  { title; header; width = List.length header; rows = [] }

let add_row t cells =
  if List.length cells <> t.width then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.width
         (List.length cells));
  t.rows <- Cells cells :: t.rows

let add_rows t rows = List.iter (add_row t) rows
let add_separator t = t.rows <- Separator :: t.rows

let render ?(align = Right) t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.header) in
  let update cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter (function Cells c -> update c | Separator -> ()) rows;
  let buf = Buffer.create 1024 in
  let pad i s =
    let w = widths.(i) in
    let n = w - String.length s in
    if n <= 0 then s
    else
      match align with
      | Right -> String.make n ' ' ^ s
      | Left -> s ^ String.make n ' '
  in
  let pad_header i s =
    let w = widths.(i) in
    let n = w - String.length s in
    if n <= 0 then s else s ^ String.make n ' '
  in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line pad cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad i c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  line pad_header t.header;
  rule ();
  List.iter (function Cells c -> line pad c | Separator -> rule ()) rows;
  rule ();
  Buffer.contents buf

let print ?align t = print_string (render ?align t)

let cell_float ?(decimals = 2) v =
  let a = Float.abs v in
  if v <> v then "nan"
  else if a <> 0. && (a >= 1e9 || a < 1e-4) then Printf.sprintf "%.3g" v
  else Printf.sprintf "%.*f" decimals v

let cell_ratio v = Printf.sprintf "%.2fx" v
