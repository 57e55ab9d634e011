(** Serving benchmark (and recovery gate) for the [neurovec serve]
    daemon, exercised {e with faults active} (stall + transient):

    - {b cold}: a fresh daemon and an empty on-disk store absorb the
      whole corpus from several concurrent clients — sustained
      requests/sec and p50/p99 latency come from this leg;
    - {b crash}: the store is torn mid-append (the tail of the last
      record is cut, simulating a SIGKILL between [write] and [flush]);
    - {b warm}: a restarted daemon recovers the store — torn tail
      dropped, intact records trusted — and replays the same load.

    The gate is the recovery contract: {e every} warm reply (answers and
    typed error replies alike — both are deterministic) must be
    byte-identical to its cold counterpart, and the warm leg must beat
    the cold leg by the regression floor (store hits skip the forward
    pass and the compile entirely).  Results land in [BENCH_serve.json]. *)

let wall () = Unix.gettimeofday ()

let corpus_seed = 13

let agent_seed = 9

let clients = 4

(* the CI recipe: stalls cancelled by the watchdog, transients retried
   deterministically — successful replies keep fault-free values *)
let fault_spec = Neurovec.Faults.create ~seed:7 ~stall:0.02 ~transient:0.1 ()

(* ------------------------------------------------------------------ *)
(* BENCH_serve.json                                                     *)
(* ------------------------------------------------------------------ *)

let json_of ~(programs : int) ~(requests : int) ~(jobs_pool : int)
    ~(cold_seconds : float) ~(warm_seconds : float) ~(p50_ms : float)
    ~(p99_ms : float) ~(store_entries : int) ~(error_replies : int) :
    string =
  let rps (s : float) = float_of_int requests /. Float.max s 1e-9 in
  let num = Common.num in
  String.concat "\n"
    [
      "{";
      "  \"benchmark\": \"servebench\",";
      Printf.sprintf "  \"corpus\": \"loopgen seed %d\"," corpus_seed;
      Printf.sprintf "  \"programs\": %d," programs;
      Printf.sprintf "  \"requests\": %d," requests;
      Printf.sprintf "  \"clients\": %d," clients;
      Printf.sprintf "  \"jobs_pool\": %d," jobs_pool;
      Printf.sprintf "  \"cores\": %d," (Domain.recommended_domain_count ());
      "  \"faults\": \"seed=7,stall=0.02,transient=0.1\",";
      Printf.sprintf "  \"cold_seconds\": %s," (num cold_seconds);
      Printf.sprintf "  \"warm_seconds\": %s," (num warm_seconds);
      Printf.sprintf "  \"cold_requests_per_second\": %s,"
        (num (rps cold_seconds));
      Printf.sprintf "  \"warm_requests_per_second\": %s,"
        (num (rps warm_seconds));
      Printf.sprintf "  \"p50_latency_ms\": %s," (num p50_ms);
      Printf.sprintf "  \"p99_latency_ms\": %s," (num p99_ms);
      Printf.sprintf "  \"warm_speedup\": %s,"
        (num (cold_seconds /. Float.max warm_seconds 1e-9));
      Printf.sprintf "  \"store_entries\": %d," store_entries;
      Printf.sprintf "  \"error_replies\": %d," error_replies;
      "  \"recovery_bit_identical\": true";
      "}";
    ]

let required_keys =
  [ "benchmark"; "programs"; "requests"; "clients"; "jobs_pool"; "cores";
    "cold_seconds"; "warm_seconds"; "cold_requests_per_second";
    "warm_requests_per_second"; "p50_latency_ms"; "p99_latency_ms";
    "warm_speedup"; "store_entries"; "recovery_bit_identical" ]

(* ------------------------------------------------------------------ *)
(* Load generation                                                      *)
(* ------------------------------------------------------------------ *)

(* a reply's identity for the bit-identity gate: the full wire payload,
   so answer text AND typed errors both count *)
let reply_bytes (r : Serve.Protocol.reply) : string =
  Serve.Protocol.encode_reply r

(* drive the whole corpus through [server] from [clients] concurrent
   threads; returns (wall seconds, per-request latencies, replies in
   corpus order) *)
let drive (server : Serve.Server.t) (corpus : Dataset.Program.t array) :
    float * float array * string array =
  let n = Array.length corpus in
  let latencies = Array.make n 0.0 in
  let replies = Array.make n "" in
  let t0 = wall () in
  let worker c () =
    let i = ref c in
    while !i < n do
      let p = corpus.(!i) in
      let r0 = wall () in
      let reply =
        Serve.Server.call server
          ~client:(Printf.sprintf "bench-%d" c)
          ~name:p.Dataset.Program.p_name
          ~kernel:p.Dataset.Program.p_kernel
          ~source:p.Dataset.Program.p_source
      in
      latencies.(!i) <- wall () -. r0;
      replies.(!i) <- reply_bytes reply;
      i := !i + clients
    done
  in
  let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  (wall () -. t0, latencies, replies)

let percentile (xs : float array) (p : float) : float =
  let ys = Array.copy xs in
  Array.sort compare ys;
  let n = Array.length ys in
  if n = 0 then 0.0
  else ys.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* cut the tail of the store's last record: the crash window between
   append and flush *)
let tear_store (path : string) : unit =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  if len > 8 then begin
    let keep = len - 7 in
    let ic = open_in_bin path in
    let body = really_input_string ic keep in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc body;
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* The benchmark                                                        *)
(* ------------------------------------------------------------------ *)

let print () =
  Common.header
    "Vectorizer-as-a-service: cold vs warm throughput, faults active, \
     crash recovery bit-identity";
  let corpus =
    Dataset.Loopgen.generate ~seed:corpus_seed (Common.scaled 40)
  in
  let n = Array.length corpus in
  let agent =
    Rl.Agent.create ~space:Rl.Spaces.Discrete (Nn.Rng.create agent_seed)
  in
  (* serve a real checkpoint, as the daemon would *)
  let ckpt =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "neurovec_servebench_%d.ckpt" (Unix.getpid ()))
  in
  Rl.Checkpoint.save agent ckpt;
  let agent = Rl.Checkpoint.load ckpt in
  let store_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "neurovec_servebench_%d.store" (Unix.getpid ()))
  in
  (try Sys.remove store_path with Sys_error _ -> ());
  let options =
    { Neurovec.Pipeline.default_options with faults = fault_spec }
  in
  (* stalled evaluations should die fast, not bill 2 s each *)
  Neurovec.Supervisor.set_deadline 0.2;
  let jobs = Neurovec.Parpool.jobs () in
  Printf.printf "corpus: %d programs, %d clients, pool size %d\n%!" n
    clients jobs;
  (* ---- cold: empty store ---- *)
  Neurovec.Frontend.clear ();
  let server =
    Serve.Server.create ~options ~store_path ~max_queue:256 agent
  in
  let cold_seconds, latencies, cold_replies = drive server corpus in
  Serve.Server.stop server;
  (* ---- crash: tear the last record mid-append ---- *)
  tear_store store_path;
  (* ---- warm: recover + replay; in-memory tiers dropped too ---- *)
  Neurovec.Frontend.clear ();
  let server =
    Serve.Server.create ~options ~store_path ~max_queue:256 agent
  in
  let warm_seconds, _, warm_replies = drive server corpus in
  let store_entries =
    match server.Serve.Server.store with
    | Some s -> Serve.Store.length s
    | None -> 0
  in
  Serve.Server.stop server;
  (try Sys.remove store_path with Sys_error _ -> ());
  (try Sys.remove (store_path ^ ".quarantined") with Sys_error _ -> ());
  (try Sys.remove ckpt with Sys_error _ -> ());
  (* ---- the gate: warm-after-crash answers are the cold answers ---- *)
  let mismatches = ref 0 in
  Array.iteri
    (fun i c -> if c <> warm_replies.(i) then incr mismatches)
    cold_replies;
  if !mismatches > 0 then
    failwith
      (Printf.sprintf
         "%d of %d warm-restart replies diverged from the cold run"
         !mismatches n);
  let error_replies =
    Array.fold_left
      (fun acc (r : string) ->
        if String.length r > 0 && r.[0] = 'E' then acc + 1 else acc)
      0 cold_replies
  in
  let p50 = 1000.0 *. percentile latencies 0.50 in
  let p99 = 1000.0 *. percentile latencies 0.99 in
  let rps s = float_of_int n /. Float.max s 1e-9 in
  Printf.printf
    "  cold:  %7.3f s  (%6.1f req/s)   p50 %6.2f ms   p99 %6.2f ms\n"
    cold_seconds (rps cold_seconds) p50 p99;
  Printf.printf "  warm:  %7.3f s  (%6.1f req/s)   %d store entries, %d \
                 typed error replies\n%!"
    warm_seconds (rps warm_seconds) store_entries error_replies;
  Printf.printf "recovery: bit-identical after torn-tail crash (all %d \
                 replies)\n%!"
    n;
  let speedup = cold_seconds /. Float.max warm_seconds 1e-9 in
  Common.bar "warm vs cold" speedup;
  Common.write_bench ~required:required_keys "BENCH_serve.json"
    (json_of ~programs:n ~requests:n ~jobs_pool:jobs ~cold_seconds
       ~warm_seconds ~p50_ms:p50 ~p99_ms:p99 ~store_entries ~error_replies);
  if speedup < 1.3 then
    failwith
      (Printf.sprintf
         "warm serving is only %.2fx the cold run (floor 1.3x): the store \
          tier regressed"
         speedup);
  Printf.printf "%!"
