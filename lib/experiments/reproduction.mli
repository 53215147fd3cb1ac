(** The paper reproduction: every table, figure and ablation of §4 in
    paper order — the one list behind [camelot_sim all] and the bench
    harness's Part 1. Latency experiments run [reps] repetitions (the
    RPC decomposition [4 * reps], multicast [2 * reps], ablations
    [max 20 (reps / 2)]); throughput figures run [horizon_ms] of
    virtual time per point. *)
val run : reps:int -> horizon_ms:float -> unit -> unit
