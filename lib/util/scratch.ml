type 'a t = { fill : 'a; key : 'a array ref Domain.DLS.key }

let create fill = { fill; key = Domain.DLS.new_key (fun () -> ref [||]) }

let get b n =
  let r = Domain.DLS.get b.key in
  if Array.length !r < n then
    r := Array.make (max n (2 * Array.length !r)) b.fill;
  !r
