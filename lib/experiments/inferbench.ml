(** Inference throughput benchmark (and equivalence gate): embed + policy
    forward for every loop site of the fig7-style synthetic corpus through

    - the {b serial} per-site path (one-row [Rl.Agent.predict_batch]
      calls, what a single-snippet caller runs),
    - the {b batched} path ([Rl.Agent.predict_batch] over the corpus:
      contiguous Bigarray buffers, per-batch context dedup, matrix-matrix
      kernels over the preallocated scratch arena) — measured {b cold}
      (arena dropped before every round) and {b warm} (steady state,
      allocation-free),
    - and the batched path {b sharded across the Parpool domains}.

    The gate verifies all paths first: policy logits and values
    bit-identical between one-row [Agent.forward_batch] calls, the jobs-1
    batch and the pooled batch, and identical greedy actions on every
    site.  Throughput (loops/sec) lands in [BENCH_infer.json]; a warm
    batched speedup below the regression floor fails the run. *)

let wall () = Unix.gettimeofday ()

(* fig7's corpus recipe: the synthetic Loopgen corpus of the shared
   trained instance (Trained.build's seed), agent seed 9 as
   Framework.create uses *)
let corpus_seed = 5

let agent_seed = 9

type leg = { l_name : string; l_seconds : float }

let bits = Int64.bits_of_float

let pool_map f xs = Neurovec.Parpool.map f xs

let check_forward ~(what : string)
    (one_row : (Nn.Tensor.vec * float) array)
    (batched : (Nn.Tensor.vec * float) array) : unit =
  let row_bits (pi, v) = (Array.map bits pi, bits v) in
  Array.iteri
    (fun i r ->
      if i >= Array.length batched || row_bits r <> row_bits batched.(i) then
        failwith (Printf.sprintf "%s: site %d logits or value differ" what i))
    one_row;
  if Array.length one_row <> Array.length batched then
    failwith (Printf.sprintf "%s: %d vs %d results" what
                (Array.length one_row) (Array.length batched))

(* ------------------------------------------------------------------ *)
(* BENCH_infer.json                                                     *)
(* ------------------------------------------------------------------ *)

let json_of ~(programs : int) ~(sites : int) ~(rounds : int)
    ~(jobs_pool : int) ~(unique_ratio : float) ~(serial : leg) ~(cold : leg)
    ~(warm : leg) ~(pooled : leg) : string =
  let lps (l : leg) =
    float_of_int (sites * rounds) /. Float.max l.l_seconds 1e-9
  in
  let speedup (l : leg) = serial.l_seconds /. Float.max l.l_seconds 1e-9 in
  let num = Common.num in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"inferbench\",";
      Printf.sprintf "  \"corpus\": \"loopgen seed %d (fig7 recipe)\","
        corpus_seed;
      Printf.sprintf "  \"programs\": %d," programs;
      Printf.sprintf "  \"sites\": %d," sites;
      Printf.sprintf "  \"rounds\": %d," rounds;
      Printf.sprintf "  \"cores\": %d," (Domain.recommended_domain_count ());
      Printf.sprintf "  \"jobs_pool\": %d," jobs_pool;
      Printf.sprintf "  \"unique_context_ratio\": %s," (num unique_ratio);
      Printf.sprintf "  \"serial_seconds\": %s," (num serial.l_seconds);
      Printf.sprintf "  \"batched_cold_seconds\": %s," (num cold.l_seconds);
      Printf.sprintf "  \"batched_warm_seconds\": %s," (num warm.l_seconds);
      Printf.sprintf "  \"pooled_seconds\": %s," (num pooled.l_seconds);
      Printf.sprintf "  \"serial_loops_per_second\": %s," (num (lps serial));
      Printf.sprintf "  \"batched_cold_loops_per_second\": %s,"
        (num (lps cold));
      Printf.sprintf "  \"batched_loops_per_second\": %s," (num (lps warm));
      Printf.sprintf "  \"pooled_loops_per_second\": %s," (num (lps pooled));
      Printf.sprintf "  \"speedup_batched_cold\": %s," (num (speedup cold));
      Printf.sprintf "  \"speedup_batched\": %s," (num (speedup warm));
      Printf.sprintf "  \"speedup_pooled\": %s," (num (speedup pooled));
      "  \"bit_identical\": true";
      "}";
    ]

let required_keys =
  [ "benchmark"; "programs"; "sites"; "rounds"; "cores"; "jobs_pool";
    "serial_seconds";
    "batched_warm_seconds"; "pooled_seconds"; "serial_loops_per_second";
    "batched_loops_per_second"; "pooled_loops_per_second";
    "speedup_batched"; "speedup_pooled"; "unique_context_ratio";
    "bit_identical" ]

(* ------------------------------------------------------------------ *)
(* The benchmark                                                        *)
(* ------------------------------------------------------------------ *)

let print () =
  Common.header
    "Batched inference: serial vs batched vs pooled, same bits, loops/sec";
  let programs = Dataset.Loopgen.generate ~seed:corpus_seed (Common.scaled 200) in
  let agent =
    Rl.Agent.create ~space:Rl.Spaces.Discrete (Nn.Rng.create agent_seed)
  in
  Neurovec.Frontend.clear ();
  let sites =
    Array.concat
      (Array.to_list
         (Array.map
            (fun p ->
              let prog =
                (Neurovec.Frontend.checked p).Neurovec.Frontend.a_ast
              in
              Array.of_list
                (List.map
                   (fun site -> Neurovec.Framework.encode_site agent site)
                   (Neurovec.Extractor.extract prog)))
            programs))
  in
  let n = Array.length sites in
  let jobs = max 2 (Neurovec.Parpool.jobs ()) in
  (* how much the batch dedups: distinct (l, p, r) triples / occurrences *)
  let unique_ratio =
    let seen = Hashtbl.create 1024 and total = ref 0 in
    Array.iter
      (fun ids ->
        Array.iter
          (fun (c : Embedding.Code2vec.ids) ->
            incr total;
            Hashtbl.replace seen
              (c.Embedding.Code2vec.li, c.Embedding.Code2vec.pi,
               c.Embedding.Code2vec.ri)
              ())
          ids)
      sites;
    float_of_int (Hashtbl.length seen) /. float_of_int (max 1 !total)
  in
  Printf.printf
    "corpus: %d programs, %d loop sites, %.1f%% unique contexts, pool size \
     %d\n%!"
    (Array.length programs) n (100.0 *. unique_ratio) jobs;
  (* ---- the gate first: speedups are meaningless if the bits moved ---- *)
  let one_row_fwd =
    Array.map (fun ids -> (Rl.Agent.forward_batch agent [| ids |]).(0)) sites
  in
  check_forward ~what:"forward_batch (jobs 1)" one_row_fwd
    (Rl.Agent.forward_batch agent sites);
  check_forward
    ~what:(Printf.sprintf "forward_batch (jobs %d pool)" jobs)
    one_row_fwd
    (Rl.Agent.forward_batch ~jobs ~map:pool_map agent sites);
  let predict_one ids = (Rl.Agent.predict_batch agent [| ids |]).(0) in
  let acts_serial = Array.map predict_one sites in
  if acts_serial <> Rl.Agent.predict_batch agent sites then
    failwith "predict_batch (jobs 1) diverged from one-row calls";
  if acts_serial <> Rl.Agent.predict_batch ~jobs ~map:pool_map agent sites
  then failwith "predict_batch (pool) diverged from one-row calls";
  Printf.printf "bit-identical: yes (logits, values and actions; one-row \
                 calls, jobs 1 and jobs-%d pool)\n%!"
    jobs;
  (* ---- throughput: calibrate rounds so each leg is measurable ---- *)
  let rounds =
    let t0 = wall () in
    Array.iter (fun ids -> ignore (predict_one ids)) sites;
    let dt = wall () -. t0 in
    max 3 (int_of_float (0.5 /. Float.max dt 1e-6))
  in
  let time l_name f =
    let t0 = wall () in
    for _ = 1 to rounds do
      f ()
    done;
    { l_name; l_seconds = wall () -. t0 }
  in
  let lps (l : leg) =
    float_of_int (n * rounds) /. Float.max l.l_seconds 1e-9
  in
  let serial =
    time "serial one-row calls" (fun () ->
        Array.iter (fun ids -> ignore (predict_one ids)) sites)
  in
  let cold =
    time "batched, cold arena" (fun () ->
        Nn.Batch.reset_domain_arena ();
        ignore (Rl.Agent.predict_batch agent sites))
  in
  (* warm the arena once, then measure the allocation-free steady state *)
  ignore (Rl.Agent.predict_batch agent sites);
  let warm =
    time "batched, warm arena" (fun () ->
        ignore (Rl.Agent.predict_batch agent sites))
  in
  let pooled =
    time "batched + pool" (fun () ->
        ignore (Rl.Agent.predict_batch ~jobs ~map:pool_map agent sites))
  in
  List.iter
    (fun l ->
      Printf.printf "  %-22s %8.3f s  (%10.0f loops/s)\n" l.l_name
        l.l_seconds (lps l))
    [ serial; cold; warm; pooled ];
  let speedup (l : leg) = serial.l_seconds /. Float.max l.l_seconds 1e-9 in
  Common.bar "batched vs serial" (speedup warm);
  Common.bar "cold    vs serial" (speedup cold);
  Common.bar "pooled  vs serial" (speedup pooled);
  Common.write_bench ~required:required_keys "BENCH_infer.json"
    (json_of ~programs:(Array.length programs) ~sites:n ~rounds
       ~jobs_pool:jobs ~unique_ratio ~serial ~cold ~warm ~pooled);
  if speedup warm < 1.5 then
    failwith
      (Printf.sprintf
         "batched inference is only %.2fx the serial path (floor 1.5x): \
          the batched kernels regressed"
         (speedup warm));
  Printf.printf "%!"
