(* Seeded input generator. Every input the program receives is built
   here from the workload's seed: the same seed gives the same list.

   The query sets themselves are fixed and the seed draws their order
   and, for certifyd, the arrival times and the placement of repeats.
   Runs with different seeds therefore do the same work, so their
   medians can be compared, while no two seeds feed the program the
   same sequence. *)

type query = {
  model : string;
  index : int;  (** test-set sentence of the model's corpus *)
  word : int;  (** perturbed position *)
  p : Deept.Lp.t;
  radius : float;  (** fixed-radius workloads only; 0 for the search *)
}

let q model index ?(word = 1) p radius = { model; index; word; p; radius }

let key q =
  Printf.sprintf "%s/%d/w%d/%s/%g" q.model q.index q.word
    (Deept.Lp.to_string q.p) q.radius

let shuffled rng l =
  let a = Array.of_list l in
  Tensor.Rng.shuffle rng a;
  Array.to_list a

let rng_of ~seed salt = Tensor.Rng.create ((seed * 7919) + salt)

(* ---- radius_search: DeepT-Fast certified-radius queries ---------- *)

(* Short sentences (4-6 tokens) on every model and one long (8-token)
   sst_3 sentence, over the three norms. A second long sentence would
   add 6 s to every round on a 2-core host. Five 4-token sst_3 and
   robust_3 queries of similar cost sit in the middle of the list's
   costs, so the median falls among ten samples of them rather than on
   the two samples of one query. *)
let radius_set =
  Deept.Lp.
    [
      q "small_3" 1 L2 0.0;
      q "small_3" 1 L1 0.0;
      q "robust_3" 5 Linf 0.0;
      q "sst_3" 5 L2 0.0;
      q "sst_3" 14 Linf 0.0;
      q "robust_3" 14 L2 0.0;
      q "sst_3" 17 L1 0.0;
      q "small_6" 1 Linf 0.0;
      q "sst_3" 1 L1 0.0;
      q "std_3" 14 L2 0.0;
      q "sst_3" 8 L2 0.0;
    ]

let radius_queries ~seed = shuffled (rng_of ~seed 1) radius_set

(* ---- precise_batch: fixed-radius DeepT-Precise jobs --------------- *)

(* Radii placed so that the ladder ends in every way it can end on a
   clean run: certified by the Precise rung, certified by the refine
   rung, unknown after refinement, and falsified by a concrete point.
   Eleven jobs put the median inside the class of three ~0.9 s jobs,
   not on the jump between two jobs' costs. *)
let precise_set =
  Deept.Lp.
    [
      q "small_3" 1 Linf 0.03;
      q "small_3" 4 Linf 0.05;
      q "sst_3" 5 L2 0.1;
      q "small_6" 1 L2 0.02;
      q "small_6" 4 L2 0.02;
      q "small_3" 1 Linf 0.0517;
      q "small_3" 4 Linf 0.0759;
      q "small_3" 1 L2 0.3;
      q "small_3" 1 Linf 0.1;
      q "small_3" 1 Linf 3.0;
      q "sst_3" 5 Linf 3.0;
    ]

let precise_jobs ~seed = shuffled (rng_of ~seed 2) precise_set

(* ---- certifyd_open: open-loop Poisson arrivals -------------------- *)

type cls = Distinct | Variant | Repeat

type request = {
  due : float;  (** seconds after the start of the schedule *)
  query : query;
  cls : cls;
}

let cls_name = function
  | Distinct -> "distinct"
  | Variant -> "variant"
  | Repeat -> "repeat"

(* Requests per second. At 11 the daemon's two workers were busy 40-48%
   of a run on a 2-core host; at 14 they were busy 46-59% and the
   median latency followed the host's speed twice over (see README). *)
let rate = 11.0
let share_repeat = 0.30
let share_variant = 0.25

(* Correctly classified test sentences of at most six tokens. *)
let small_pool =
  [ 0; 1; 2; 3; 4; 5; 6; 7; 9; 12; 13; 14; 16; 17; 18; 20; 21; 22; 23; 25;
    26; 27; 28; 29; 30; 31; 32; 33; 34; 36; 37; 38; 40; 41; 42; 43; 44; 45;
    46; 48; 49; 50; 51; 52; 53; 54; 55; 56; 57; 59; 62; 65; 66; 67; 68; 69;
    70; 72; 73; 74; 77; 78; 80; 81; 82; 83; 84; 85; 86; 88; 90; 91; 94; 95;
    96; 97; 98; 99; 101; 102; 103; 105; 106; 107; 108; 109; 110; 111; 115;
    116; 117; 118; 119; 120; 121; 122; 123; 125; 126; 127; 128; 130; 131;
    132; 133; 135; 136; 137; 138; 139; 140; 141; 143; 144; 145; 146; 147;
    148; 149; 150; 151; 154; 155; 156; 157; 158; 159; 163; 164; 165; 166;
    168; 171; 172; 173; 174; 175; 176; 177; 178; 179; 181; 182; 183; 184;
    187; 188; 189; 191; 192; 195; 197; 198 ]

let sst_pool =
  [ 1; 2; 4; 5; 14; 16; 17; 18; 22; 25; 26; 28; 30; 41; 48; 56; 57; 60; 65;
    66; 68; 69; 70; 72; 73; 75; 77; 84; 87; 88; 91; 93; 96; 99; 100; 101;
    102; 103; 104; 107; 113; 116; 120; 121; 126; 127; 128; 138; 143; 144;
    147; 149; 150; 162; 164; 166; 168; 170; 174; 178; 179; 180; 182; 185;
    187; 189; 190 ]

let norms = Deept.Lp.[| (L2, 0.05); (L1, 0.1); (Linf, 0.01) |]

(* Three small_3 sentences for every two sst_3 ones, norms in turn. *)
let distinct_list n =
  let small = Array.of_list small_pool and sst = Array.of_list sst_pool in
  let ns = ref 0 and nt = ref 0 in
  let out = Array.make n (q "small_3" 0 Deept.Lp.L2 0.0) in
  for k = 0 to n - 1 do
    let p, r = norms.(k mod 3) in
    let take_small =
      (k mod 5 < 3 && !ns < Array.length small) || !nt >= Array.length sst
    in
    if take_small then begin
      if !ns >= Array.length small then
        invalid_arg "Gen.distinct_list: sentence pools exhausted";
      out.(k) <- q "small_3" small.(!ns) p r;
      incr ns
    end
    else begin
      out.(k) <- q "sst_3" sst.(!nt) p r;
      incr nt
    end
  done;
  Array.to_list out

(* The same sentence as a distinct query, at another word or twice the
   radius: a computed job, never a cache hit. *)
let variant j d =
  if j mod 2 = 0 then { d with word = 2 } else { d with radius = 2.0 *. d.radius }

let schedule_size ~seconds = max 100 (int_of_float (Float.round (rate *. seconds)))

(* [certifyd_schedule ~seed ~seconds]: [rate * seconds] requests (at
   least 100) arriving as a Poisson process. Shares are exact:
   30% exact repeats, 25% variants, the rest distinct. Every repeat
   copies one of the first [n_w] computed requests, which the schedule
   sends first, and comes at least [gap] computed requests (two
   seconds of arrivals) after them, so it is a cache hit whatever the
   seed. *)
let certifyd_schedule ~seed ~seconds =
  let rng = rng_of ~seed 3 in
  let n = schedule_size ~seconds in
  let n_rep = int_of_float (Float.round (share_repeat *. float_of_int n)) in
  let n_var = int_of_float (Float.round (share_variant *. float_of_int n)) in
  let n_d = n - n_rep - n_var in
  let d = distinct_list n_d in
  let n_w = (n_rep + 1) / 2 in
  let w = List.filteri (fun i _ -> i < n_w) d in
  let rest = List.filteri (fun i _ -> i >= n_w) d in
  let vars = List.mapi variant (List.filteri (fun i _ -> i < n_var) d) in
  let computed =
    List.map (fun x -> (x, Distinct)) (shuffled rng w)
    @ shuffled rng
        (List.map (fun x -> (x, Distinct)) rest
        @ List.map (fun x -> (x, Variant)) vars)
  in
  let n_c = List.length computed in
  let gap = int_of_float (2.0 *. rate) in
  if n_c <= n_w + gap then invalid_arg "Gen.certifyd_schedule: too few requests";
  let keyed =
    List.mapi (fun i c -> (float_of_int i, c)) computed
    @ List.init n_rep (fun j ->
          let u = Tensor.Rng.float rng in
          ( float_of_int (n_w + gap) +. (u *. float_of_int (n_c - n_w - gap)),
            (List.nth w (j mod n_w), Repeat) ))
  in
  let ordered = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) keyed in
  (* A Poisson process conditioned on [n] arrivals in [0, seconds]: the
     arrival times are [n] sorted uniform draws. Every seed's schedule
     thus spans the run, and only the gaps differ. *)
  let dues = Array.init n (fun _ -> seconds *. Tensor.Rng.float rng) in
  Array.sort Float.compare dues;
  List.mapi (fun k (_, (query, cls)) -> { due = dues.(k); query; cls }) ordered

let models_of qs = List.sort_uniq String.compare (List.map (fun q -> q.model) qs)
