(* Output checks made apart from the verifier: concrete sampling, the
   PGD attack and the ladder's own bookkeeping. None of them reads a
   stored copy of an earlier run. *)

module Mat = Tensor.Mat
module Rng = Tensor.Rng

let perturb x ~word delta =
  Mat.mapi (fun i j v -> if i = word then v +. delta.(j) else v) x

(* Points a hair inside the ball, so that rounding in [perturb] cannot
   carry a boundary point out of the certified region. *)
let shrink = 1.0 -. 1e-9

(* Boundary points: ℓ∞ and ℓ1 vertices, ℓ2 sphere points. *)
let boundary rng (p : Deept.Lp.t) d radius ~n =
  let r = radius *. shrink in
  match p with
  | Linf -> List.init n (fun _ -> Array.init d (fun _ -> if Rng.bool rng then r else -.r))
  | L1 ->
      List.init (2 * d) (fun k ->
          Array.init d (fun j ->
              if j = k / 2 then if k mod 2 = 0 then r else -.r else 0.0))
  | L2 ->
      List.init n (fun _ ->
          let g = Array.init d (fun _ -> Rng.gaussian rng) in
          let norm = sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 g) in
          Array.map (fun v -> r *. v /. norm) g)

let interior rng p d radius ~n =
  List.init n (fun _ ->
      Array.map (fun v -> radius *. shrink *. v) (Deept.Lp.unit_ball_sample rng p d))

(* A misclassified point of the ℓp ball around row [word], found by
   sampling and then by PGD; [None] when neither finds one. *)
let counterexample ?(steps = 20) ?(restarts = 2) ~seed program ~p x ~word ~radius
    ~true_class =
  let rng = Rng.create seed in
  let d = Mat.cols x in
  let bad m = Nn.Forward.predict program m <> true_class in
  let points = boundary rng p d radius ~n:32 @ interior rng p d radius ~n:32 in
  match List.find_opt (fun delta -> bad (perturb x ~word delta)) points with
  | Some delta -> Some (perturb x ~word delta)
  | None ->
      if radius = 0.0 then None
      else
        (Attack.pgd ~steps ~restarts ~rng program ~p x ~word ~radius:(radius *. shrink)
           ~true_class)
          .Attack.adversarial

(* [Some reason] when the ladder walked out of order: the refine rung may
   only follow unknown(imprecise) at the requested rung, and the final
   verdict must be the last attempt's. *)
let ladder_fault ~requested (o : Deept.Engine.outcome) =
  let open Deept.Engine in
  let ups = List.filter (fun a -> a.direction = Up) o.attempts in
  match (o.attempts, List.rev o.attempts) with
  | [], _ | _, [] -> Some "no attempt recorded"
  | first :: rest, last :: _ ->
      if last.rung_name <> o.rung_name || not (Deept.Verdict.equal last.verdict o.verdict)
      then Some "final verdict is not the last attempt's"
      else if
        ups <> []
        && not
             (first.rung_name = requested
             && first.direction = Down
             && first.verdict = Deept.Verdict.Unknown Deept.Verdict.Imprecise
             && List.for_all (fun a -> a.direction = Up) rest)
      then Some "refine rung without unknown(imprecise) at the requested rung"
      else None
