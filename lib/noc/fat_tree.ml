type t = {
  server_count : int;
  servers_per_leaf : int;
  server_link_gbps : float;
}

let create ?(server_link_gbps = 100.) ?(servers_per_leaf = 16) ~servers () =
  if servers <= 0 || servers_per_leaf <= 0 then
    invalid_arg "Fat_tree.create: non-positive size";
  { server_count = servers; servers_per_leaf; server_link_gbps }

let ascend_cluster = create ~servers:256 ()

let servers t = t.server_count

let leaves t =
  Ascend_util.Stats.divide_round_up t.server_count t.servers_per_leaf

let server_bandwidth t = t.server_link_gbps *. 1e9 /. 8.

let bisection_bandwidth t =
  (* full bisection: half the servers can simultaneously send across *)
  float_of_int (t.server_count / 2) *. server_bandwidth t

let latency_us t ~src ~dst =
  if src = dst then 0.
  else if src / t.servers_per_leaf = dst / t.servers_per_leaf then 1.0
  else 3.0
