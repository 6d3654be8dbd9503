(* Order statistics shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator):
   [percentile xs 50.] is the usual median, even count included. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let h = q /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* The tail percentile a run may report: the highest of the usual
   percentiles with at least ten samples beyond it, and none at all
   below forty samples, where a "tail" would be a handful of queries. *)
let tail_percentile n =
  if n < 40 then None
  else
    List.fold_left
      (fun best q ->
        if float_of_int n *. (100.0 -. q) /. 100.0 >= 10.0 -. 1e-9 then Some q
        else best)
      None [ 75.0; 90.0; 95.0; 99.0; 99.9 ]

let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no samples";
  List.iter
    (fun x -> if not (x > 0.0) then invalid_arg "Stats.geomean: non-positive")
    xs;
  exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean xs =
  if xs = [] then 0.0
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
