(* The benchmark's own arithmetic, kept free of the simulator so the
   unit tests in test_calc.ml can check it on synthetic inputs. *)

type percentile = { value : float; samples : int; beyond : int }

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. [beyond] counts the samples strictly
   after that rank, which is what says whether a tail percentile has
   enough support (at least ten samples beyond it). *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Calc.percentile: no samples";
  if q <= 0.0 || q > 1.0 then invalid_arg "Calc.percentile: q outside (0, 1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))) in
  { value = sorted.(rank - 1); samples = n; beyond = n - rank }

let median xs = (percentile xs 0.5).value

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Calc.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Mean relative distance of the simulated latencies from the paper's,
   in percent, over [(simulated, paper)] anchor pairs. *)
let paper_gap_pct anchors =
  if anchors = [] then invalid_arg "Calc.paper_gap_pct: no anchors";
  let gaps =
    List.map
      (fun (sim, paper) ->
        if paper <= 0.0 then invalid_arg "Calc.paper_gap_pct: paper value <= 0";
        Float.abs (sim -. paper) /. paper)
      anchors
  in
  100.0 *. mean (Array.of_list gaps)

(* One rung of an open-loop rate ladder. *)
type rung = { offered_tps : float; p99_ms : float; arrivals : int; backlog : int }

(* The highest offered rate whose p99 meets [limit_ms] and whose
   backlog at the horizon is at most a tenth of its arrivals (the
   saturation rule of [Open_loop.knee]); [None] when no rung does. *)
let sustainable_tps ~limit_ms ladder =
  List.fold_left
    (fun best r ->
      let ok =
        r.arrivals > 0
        && r.p99_ms <= limit_ms
        && float_of_int r.backlog <= 0.1 *. float_of_int r.arrivals
      in
      match best with
      | Some b when ok && r.offered_tps > b -> Some r.offered_tps
      | None when ok -> Some r.offered_tps
      | _ -> best)
    None ladder

(* Every transaction the workload tried, by how it ended. Aborts, lock
   timeouts, shed submissions and transactions unfinished when the run
   stopped are all failures against [attempted]. *)
type outcomes = {
  attempted : int;
  committed : int;
  aborted : int;
  timed_out : int;  (** lock wait timed out, then aborted *)
  shed : int;
  unfinished : int;
}

let check_outcomes o =
  if o.attempted <= 0 then invalid_arg "Calc.abort_pct: nothing attempted";
  if o.committed + o.aborted + o.timed_out + o.shed + o.unfinished <> o.attempted
  then invalid_arg "Calc.abort_pct: outcomes do not sum to attempted"

let abort_pct o =
  check_outcomes o;
  100.0 *. float_of_int (o.attempted - o.committed) /. float_of_int o.attempted

let committed_pct o = 100.0 -. abort_pct o

(* Time in [(start, stop)] not covered by any of [children], which may
   overlap one another or stick out of the parent interval. *)
let self_time (start, stop) children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, start) clipped
  in
  Float.max 0.0 (stop -. start -. covered)
