(* Workload inputs, generated here from the benchmark's seed. The
   simulator sees only what these produce: think times, keys and
   transaction kinds for the closed loops, the arrival schedule for the
   open loop. The model's own randomness (network and CPU jitter) is
   seeded through [Cluster.create ~seed]. *)

(* An independent stream per (seed, stream id): workers and sites draw
   from their own streams, so their inputs do not depend on the order
   in which the simulation happens to run them. *)
let stream ~seed id = Random.State.make [| 0x5eed; seed; id |]

let exponential st ~mean = -.mean *. log (1.0 -. Random.State.float st 1.0)

(* Zipf over ranks [0, n) with exponent [theta]: rank 0 is hottest. *)
module Zipf = struct
  type t = float array (* cumulative distribution *)

  let create ~n ~theta =
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  let draw cdf st =
    let u = Random.State.float st 1.0 in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* A closed-loop worker's next transaction. *)
type kind = Read | Update | Distributed

type step = { think_ms : float; key : int; kind : kind }

(* [p_read] of transactions read one local key, up to [p_update]
   update it, the rest are distributed updates. *)
let next_step st ~think_mean_ms ~keys ~p_read ~p_update =
  let think_ms = exponential st ~mean:think_mean_ms in
  let key = Random.State.int st keys in
  let u = Random.State.float st 1.0 in
  let kind = if u < p_read then Read else if u < p_update then Update else Distributed in
  { think_ms; key; kind }

(* One open-loop arrival: a transfer of one unit from [debit] at the
   origin site to [credit], at the origin or at the next site. *)
type arrival = { at_ms : float; origin : int; debit : int; credit : int; remote : bool }

(* Poisson arrivals at [rate_tps] over [0, horizon_ms). *)
let arrivals ~seed ~rate_tps ~horizon_ms ~sites ~keys ~theta ~p_remote =
  let st = stream ~seed 1 in
  let zipf = Zipf.create ~n:keys ~theta in
  let mean = 1000.0 /. rate_tps in
  let out = ref [] in
  let t = ref (exponential st ~mean) in
  while !t < horizon_ms do
    let origin = Random.State.int st sites in
    let debit = Zipf.draw zipf st in
    let credit = Zipf.draw zipf st in
    let remote = Random.State.float st 1.0 < p_remote in
    out := { at_ms = !t; origin; debit; credit; remote } :: !out;
    t := !t +. exponential st ~mean
  done;
  Array.of_list (List.rev !out)
