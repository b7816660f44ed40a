(* The end-to-end benchmark of the simulated Athena service management
   system: one process, one workload, one seed.

     main.exe --workload lookup|churn|campus_day --seed N --seconds S
              --trace 0|1 [--commit ID]

   Untraced ([--trace 0]) runs measure the end-to-end metrics with no
   wrapper installed; traced runs wrap each layer's public entry points
   from outside, record spans, and print the per-layer metrics.  The
   last line of standard output is the result object; the full report
   (provenance, sample counts, tails, checks) is the line before it and
   is also written under .e2ebench/.  README.md in this directory documents
   every metric. *)

open Workload
module L = E2ebench_core.Loadgen
module S = E2ebench_core.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------------- command line ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let commit = ref "unknown"
let out_dir = ".e2ebench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W lookup, churn or campus_day");
      ("--seed", Arg.Set_int seed, "N seed of the population and op stream");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--commit", Arg.Set_string commit, "ID source revision (provenance)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "lookup"; "churn"; "campus_day" ]) then begin
    prerr_endline "e2ebench: --workload must be lookup, churn or campus_day";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2ebench: --trace must be 0 or 1";
    exit 2
  end

let traced = !trace = 1

(* ---------------- correctness checks ---------------- *)

let failures = ref []
let failure_count = ref 0

let check what ok =
  if not ok then begin
    incr failure_count;
    if List.length !failures < 20 then failures := what :: !failures
  end

(* ---------------- spans ---------------- *)

(* Spans recorded around calls into each layer's public functions, kept
   in memory and written out when the run ends.  Off in untraced runs:
   no wrapper is even installed then. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** 0 for a root. *)
    op : int;  (** The workload operation the span belongs to. *)
    t0 : int;
    mutable t1 : int;
  }

  let on = ref false
  let spans : span list ref = ref []
  let next = ref 0
  let stack : span list ref = ref []
  let op = ref 0

  let with_span name f =
    if not !on then f ()
    else begin
      incr next;
      let s =
        {
          id = !next;
          name;
          parent = (match !stack with p :: _ -> p.id | [] -> 0);
          op = !op;
          t0 = now_ns ();
          t1 = 0;
        }
      in
      stack := s :: !stack;
      let finish () =
        s.t1 <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let dur s = s.t1 - s.t0

  (* Self time: a span's duration minus the time its children cover.
     Calls are synchronous, so children never overlap. *)
  let self_times () =
    let covered = Hashtbl.create 4096 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace covered s.parent
            (dur s + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
      !spans;
    fun s -> dur s - Option.value ~default:0 (Hashtbl.find_opt covered s.id)

  let by_id () =
    let t = Hashtbl.create 4096 in
    List.iter (fun s -> Hashtbl.replace t s.id s) !spans;
    t

  let named name = List.filter (fun s -> s.name = name) !spans

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc "[%d,%d,%d,%S,%d,%d]\n" s.id s.parent s.op s.name
          s.t0 s.t1)
      (List.rev !spans);
    close_out oc
end

(* ---------------- JSON ---------------- *)

type j =
  | F of float
  | I of int
  | Str of string
  | B of bool
  | O of (string * j) list
  | A of j list

let string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | F x ->
      if not (Float.is_finite x) then failwith "e2ebench: non-finite value";
      (* the shortest form that reads back as the same float *)
      let short = Printf.sprintf "%.15g" x in
      Buffer.add_string b
        (if float_of_string short = x then short else Printf.sprintf "%.17g" x)
  | I i -> Buffer.add_string b (string_of_int i)
  | Str s -> string b s
  | B x -> Buffer.add_string b (if x then "true" else "false")
  | A l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          emit b v)
        l;
      Buffer.add_char b ']'
  | O l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          string b k;
          Buffer.add_string b ": ";
          emit b v)
        l;
      Buffer.add_char b '}'

let to_json v =
  let b = Buffer.create 1024 in
  emit b v;
  Buffer.contents b

(* ---------------- process measurements ---------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         kb := Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
     done
   with End_of_file -> ());
  close_in ic;
  float_of_int !kb /. 1024.

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let counter name = Option.value ~default:0 (Obs.find_counter Obs.default name)

let hist_p99 name =
  match Obs.find_histogram Obs.default name with
  | Some h when h.Obs.count > 0 -> h.Obs.p99
  | _ -> 0

(* ---------------- the world ---------------- *)

(* Minutes between Testbed cron firings: never, within a run.  The
   benchmark invokes the DCM itself so it can time each cycle. *)
let never = 1_000_000

type world = {
  tb : Testbed.t;
  clients : Moira.Mr_client.t array;
  dcm : Dcm.Manager.t option;
  first_report : Dcm.Manager.report option;
}

let spec scale =
  Population.scaled { Population.default with Population.seed = !seed } scale

(* Restart the Moira machine's registry, so that the measured region's
   telemetry is its own. *)
let reset_obs tb =
  Obs.reset Obs.default;
  Sim.Engine.attach_obs tb.Testbed.engine Obs.default;
  Obs.set_origin Obs.default
    (String.lowercase_ascii tb.Testbed.built.Population.moira_machine)

let admin_clients tb ~replicas =
  let ws = tb.Testbed.built.Population.workstation_machines in
  Array.init 2 (fun i ->
      let c = Testbed.admin_client tb ~src:ws.(i) in
      if replicas then Moira.Mr_client.set_replicas c (Testbed.replica_machines tb);
      c)

(* [generators] are the DCM's: the standard four, or the same with
   timers around them in a traced run. *)
let build_world ~generators =
  match !workload with
  | "lookup" ->
      let tb = Testbed.create ~spec:(spec 1.0) ~dcm_every_min:never () in
      let clients = admin_clients tb ~replicas:false in
      reset_obs tb;
      { tb; clients; dcm = None; first_report = None }
  | "churn" ->
      let tb =
        Testbed.create ~spec:(spec 1.0) ~dcm_every_min:never ~replicas:1
          ~repl_poll_ms:100 ()
      in
      let clients = admin_clients tb ~replicas:true in
      (* the replica boot-syncs past the population build *)
      Testbed.run_minutes tb 1;
      reset_obs tb;
      { tb; clients; dcm = None; first_report = None }
  | _ ->
      let tb =
        Testbed.create ~spec:(spec 4.0) ~dcm_every_min:never ~replicas:2 ()
      in
      let b = tb.Testbed.built in
      let dcm =
        Dcm.Manager.create ~net:tb.Testbed.net
          ~moira_host:b.Population.moira_machine ~glue:tb.Testbed.glue
          ~zephyr_to:b.Population.zephyr_machines.(0)
          ~mail_via:(b.Population.mail_hub, "moira-admins")
          ~generators
          ()
      in
      let clients = admin_clients tb ~replicas:true in
      Testbed.run_minutes tb 2;
      (* the first full generation and push, which a deployment pays once *)
      let first = Dcm.Manager.run dcm in
      reset_obs tb;
      { tb; clients; dcm = Some dcm; first_report = Some first }

(* ---------------- per-phase measurements ---------------- *)

(* Bytes landed on a filesystem, counted with its write hook: each
   mutated path's size once the mutation has landed (renames included),
   and the net growth. *)
type meter = { mutable written : int; mutable grown : int; settle : unit -> unit }

let meter fs ~only =
  let pending = ref [] in
  let rec m = { written = 0; grown = 0; settle }
  and settle () =
    List.iter
      (fun (p, before) ->
        let after = Netsim.Vfs.size fs ~path:p in
        m.written <- m.written + after;
        m.grown <- m.grown + after - before)
      !pending;
    pending := []
  in
  Netsim.Vfs.set_write_hook fs
    (Some
       (fun p ->
         settle ();
         if only p then pending := (p, Netsim.Vfs.size fs ~path:p) :: !pending));
  m

(* Installed by traced runs: the Moira journal file's meter, the
   serving hosts' meters, and transfer-op counts seen by the hosts'
   update handlers (delta, full). *)
let journal_meter = ref None
let install_meters = ref []
let transfers = ref (0, 0)


(* One working DCM cycle. *)
type cycle = {
  wall_ms : float;
  gen_ms : float;  (** Inside the wrapped generators (traced runs). *)
  upd_ms : float;  (** Inside the serving hosts' update handlers. *)
  rebuilt : int;
  spliced : int;
  minor_words : float;
  major_words : float;
}

type phase = {
  reads : S.samples;  (** µs *)
  writes : S.samples;
  rpcs : S.samples;
  windows : S.samples;  (** RPCs/s per half-second of a closed loop. *)
  mutable seg_start : int;
  mutable segments : (int * int) list;
      (** Measured wall ns between host-speed probes, and the probe that
          closed it; newest first. *)
  tally : S.tally;
  mutable rows : int;
  mutable wall_ns : int;
  mutable sim_ms : int;
  mutable gc0 : float * float;
  mutable gc1 : float * float;
  mutable net0 : int * int;
  mutable net1 : int * int;
  mutable plan0 : int * int;
  mutable plan1 : int * int;
  mutable journal0 : int;
  mutable journal1 : int;
  mutable bounce0 : int * int;
  mutable bounce1 : int * int;
  mutable det : (string * j) list;
  replay : (string * string list) Queue.t;  (** Reads for the glue replay. *)
  (* campus_day *)
  cycles : S.samples;  (** Working-cycle wall ms. *)
  mutable cycle_info : cycle list;  (** Working cycles, newest first. *)
  mutable cycles_run : int;
  mutable push_bytes : int;
  mutable pushes : int;
  mutable commits : int;
  advance : S.samples;  (** Wall ms of engine advance, per sim minute. *)
  lateness : S.samples;  (** Sim ms an edit was sent after it was due. *)
  first_resolve : S.samples;  (** ms *)
  mutable full_packs : int;
  (* layer counts frozen at the end of the measured region *)
  mutable journal_written : int;
  mutable journal_grown : int;
  mutable install_written : int;
  mutable transfers_seen : int * int;
  mutable repl_lag_p99 : int;
  mutable repl_apply_p99 : int;
}

let phase () =
  {
    reads = S.samples ();
    writes = S.samples ();
    rpcs = S.samples ();
    windows = S.samples ();
    seg_start = 0;
    segments = [];
    tally = S.tally ();
    rows = 0;
    wall_ns = 0;
    sim_ms = 0;
    gc0 = (0., 0.);
    gc1 = (0., 0.);
    net0 = (0, 0);
    net1 = (0, 0);
    plan0 = (0, 0);
    plan1 = (0, 0);
    journal0 = 0;
    journal1 = 0;
    bounce0 = (0, 0);
    bounce1 = (0, 0);
    det = [];
    replay = Queue.create ();
    cycles = S.samples ();
    cycle_info = [];
    cycles_run = 0;
    push_bytes = 0;
    pushes = 0;
    commits = 0;
    advance = S.samples ();
    lateness = S.samples ();
    first_resolve = S.samples ();
    full_packs = 0;
    journal_written = 0;
    journal_grown = 0;
    install_written = 0;
    transfers_seen = (0, 0);
    repl_lag_p99 = 0;
    repl_apply_p99 = 0;
  }

let plan_hm () =
  let h, m, _ = Relation.Plan.cache_stats () in
  (h, m)

let journal_seq w = Relation.Journal.head_seq (Moira.Mdb.journal w.tb.Testbed.mdb)

(* Called just before a measured region.  The set-up's garbage is
   collected here, not in the region, so every region starts from a
   compact heap. *)
let snapshot_before w ph =
  Gc.compact ();
  ph.gc0 <- gc_words ();
  ph.net0 <- (counter "net.calls", counter "net.bytes");
  ph.plan0 <- plan_hm ();
  ph.journal0 <- journal_seq w;
  ph.bounce0 <- (counter "client.read.replica", counter "client.read.stale_bounce")

let snapshot_after w ph =
  ph.gc1 <- gc_words ();
  ph.net1 <- (counter "net.calls", counter "net.bytes");
  ph.plan1 <- plan_hm ();
  ph.journal1 <- journal_seq w;
  ph.bounce1 <- (counter "client.read.replica", counter "client.read.stale_bounce");
  ph.repl_lag_p99 <- hist_p99 "repl.lag_entries";
  ph.repl_apply_p99 <- hist_p99 "repl.apply_delay_ms";
  Option.iter
    (fun m ->
      m.settle ();
      ph.journal_written <- m.written;
      ph.journal_grown <- m.grown)
    !journal_meter;
  List.iter (fun m -> m.settle ()) !install_meters;
  ph.install_written <- List.fold_left (fun a m -> a + m.written) 0 !install_meters;
  ph.transfers_seen <- !transfers

(* One RPC through the application library, timed from [mr_query] entry
   until it returns after the last tuple. *)
let rpc ph c (op : L.op) =
  let acc = ref [] in
  let run () =
    Moira.Mr_client.mr_query c ~name:op.L.name op.L.args ~callback:(fun t ->
        acc := t :: !acc)
  in
  let t0 = now_ns () in
  let code =
    Trace.with_span
      (match op.L.kind with L.Read -> "rpc.read" | L.Write -> "rpc.write")
      run
  in
  let us = float_of_int (now_ns () - t0) /. 1e3 in
  let tuples = List.rev !acc in
  S.add ph.rpcs us;
  (match op.L.kind with
  | L.Read ->
      S.add ph.reads us;
      ph.rows <- ph.rows + List.length tuples;
      if !Trace.on && Queue.length ph.replay < 50_000 then
        Queue.push (op.L.name, op.L.args) ph.replay
  | L.Write -> S.add ph.writes us);
  (code, tuples)

let record_rpc ph ok = S.record ph.tally (if ok then S.Ok else S.Failed)

(* Run engine events that are due (replica polls) without moving the
   clock. *)
let pump tb =
  let e = tb.Testbed.engine in
  Sim.Engine.run_until e (Sim.Engine.now e)

(* ---------------- host speed ---------------- *)

(* Other tenants of a shared host change its speed by 2x or more, for
   seconds at a time.  A fixed probe of the benchmark's own code, run
   between measured steps, tracks that speed.  It does what the RPC path
   does most: hashes strings, looks them up in a table larger than the
   L2 cache, and copies them into a buffer.  It calls no code of the
   program, and it allocates nothing, so it never runs a minor
   collection or a slice of the major GC work the program owes. *)
module Probe = struct
  let size = 1 lsl 16
  let keys = Array.init size (fun i -> Printf.sprintf "probe-%07d" (i * 7919 mod 9_999_991))
  let table = Hashtbl.create size
  let () = Array.iteri (fun i k -> Hashtbl.replace table k i) keys
  let buf = Bytes.create 4096
  let state = ref 1

  (* One probe; returns its wall ns.  About 3 ms on a 2-vCPU Xeon VM. *)
  let run () =
    let t0 = now_ns () in
    let pos = ref 0 and sum = ref 0 in
    for _ = 1 to 6_000 do
      state := (!state * 1103515245 + 12345) land 0x3fffffff;
      let k = keys.(!state land (size - 1)) in
      let n = String.length k in
      if !pos + n > Bytes.length buf then pos := 0;
      Bytes.blit_string k 0 buf !pos n;
      pos := !pos + n;
      sum := !sum + Hashtbl.find table k
    done;
    ignore (Sys.opaque_identity !sum);
    now_ns () - t0
end

let probe_every_ns = 50_000_000
let probe_window_ns = 500_000_000

(* A measured region is cut into segments, each closed by a probe.  The
   probes' time is left out of the region's wall time. *)
let region_start ph =
  ph.segments <- [];
  ph.seg_start <- now_ns ()

let close_segment ph t =
  let p = Probe.run () in
  ph.segments <- (t - ph.seg_start, p) :: ph.segments;
  ph.seg_start <- now_ns ()

(* Called between steps of a measured region. *)
let region_tick ph =
  let t = now_ns () in
  if t - ph.seg_start >= probe_every_ns then close_segment ph t

let region_stop ph =
  close_segment ph (now_ns ());
  ph.wall_ns <- List.fold_left (fun a (w, _) -> a + w) 0 ph.segments

let probe_time ph = S.probe_time ~window:probe_window_ns (List.rev ph.segments)

(* The closed loop: [step] performs one unit of work; the loop runs
   until [ns] have passed and at least [min_steps] steps are done. *)
let closed_loop ph ~ns ~min_steps step =
  let t0 = now_ns () in
  region_start ph;
  let limit = t0 + ns in
  let i = ref 0 in
  let w0 = ref t0 and c0 = ref 0 in
  while !i < min_steps || now_ns () < limit do
    Trace.op := !i;
    step !i;
    incr i;
    region_tick ph;
    let t = now_ns () in
    if t - !w0 >= 500_000_000 then begin
      let dt = float_of_int (t - !w0) /. 1e9 in
      S.add ph.windows (float_of_int (S.count ph.rpcs - !c0) /. dt);
      w0 := t;
      c0 := S.count ph.rpcs
    end
  done;
  region_stop ph

(* A digest of replies, oldest first. *)
let digest_of replies =
  let buf = Buffer.create 65536 in
  List.iter
    (List.iter (fun t ->
         List.iter
           (fun f ->
             Buffer.add_string buf f;
             Buffer.add_char buf '\001')
           t;
         Buffer.add_char buf '\002'))
    replies;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Lists with at least one member, so fan-out reads never come back
   empty. *)
let populated_lists w =
  let b = w.tb.Testbed.built in
  Array.append b.Population.maillist_names b.Population.group_names
  |> Array.to_list
  |> List.filter (fun l ->
         match Moira.Glue.query w.tb.Testbed.glue ~name:"get_members_of_list" [ l ] with
         | Ok (_ :: _) -> true
         | _ -> false)
  |> Array.of_list

(* ---------------- lookup ---------------- *)

let det_ops = 5_000

let lookup_phase w ~ns =
  let ph = phase () in
  let tb = w.tb in
  let next =
    L.lookup_stream ~seed:!seed ~logins:tb.Testbed.built.Population.logins
      ~lists:(populated_lists w)
  in
  (* warm the plan cache and the handles before timing *)
  let warm = phase () in
  for i = 1 to 2_000 do
    ignore (rpc warm w.clients.(i land 1) (next ()))
  done;
  let sample = L.rng (!seed + 7919) in
  (* kept during the loop and checked after it, so the checks cost the
     measured region nothing *)
  let replies = ref [] and sampled = ref [] in
  snapshot_before w ph;
  let sim0 = Sim.Engine.now tb.Testbed.engine in
  closed_loop ph ~ns ~min_steps:det_ops (fun i ->
      let op = next () in
      let code, tuples = rpc ph w.clients.(i land 1) op in
      record_rpc ph (code = 0);
      if code <> 0 then check ("lookup rpc " ^ op.L.name) false;
      if i < det_ops then replies := tuples :: !replies;
      if L.float sample < 1. /. 64. then sampled := (op, tuples) :: !sampled);
  ph.sim_ms <- Sim.Engine.now tb.Testbed.engine - sim0;
  snapshot_after w ph;
  (* a seeded sample of replies must equal the in-process answer *)
  List.iter
    (fun ((op : L.op), tuples) ->
      check ("lookup reply = glue " ^ op.L.name)
        (Moira.Glue.query tb.Testbed.glue ~name:op.L.name op.L.args = Ok tuples))
    !sampled;
  ph.det <- [ ("reply_digest", Str (digest_of (List.rev !replies))) ];
  ph

(* ---------------- churn and campus_day edits ---------------- *)

let members_snapshot w lists =
  let t = Hashtbl.create 4096 in
  Array.iter
    (fun l ->
      match Moira.Glue.query w.tb.Testbed.glue ~name:"get_members_of_list" [ l ] with
      | Ok rows ->
          Hashtbl.replace t l
            (List.sort compare
               (List.filter_map
                  (function [ "USER"; u ] -> Some u | _ -> None)
                  rows))
      | Error _ -> Hashtbl.replace t l [])
    lists;
  t

(* Does a read-back show the edit? *)
let shows (e : L.edit) code tuples =
  let has_list list =
    List.exists (function l :: _ -> l = list | [] -> false) tuples
  in
  match e with
  | L.Shell { shell; _ } -> (
      code = 0 && match tuples with [ _ :: _ :: sh :: _ ] -> sh = shell | _ -> false)
  | L.Finger { fullname; _ } -> (
      code = 0 && match tuples with [ _ :: fn :: _ ] -> fn = fullname | _ -> false)
  | L.Add_member { list; _ } -> code = 0 && has_list list
  | L.Del_member { list; _ } ->
      (code = 0 || code = Moira.Mr_err.no_match) && not (has_list list)
  | L.Add_user { login } -> (
      code = 0 && match tuples with [ l :: _ ] -> l = login | _ -> false)

(* An edit and the read of what it touched; 2 RPCs.  Returns the
   read's reply. *)
let edit_and_check ph w c (e : L.edit) =
  let op = L.edit_op e in
  let code, _ = rpc ph c op in
  record_rpc ph (code = 0);
  if code <> 0 then check ("edit " ^ op.L.name) false;
  pump w.tb;
  let code2, tuples = rpc ph c (L.check_op e) in
  let ok = shows e code2 tuples in
  record_rpc ph ok;
  if not ok then check ("read-back of " ^ op.L.name) false;
  tuples

let memberships_restored w snap lists =
  let now = members_snapshot w lists in
  Array.for_all (fun l -> Hashtbl.find_opt now l = Hashtbl.find_opt snap l) lists

let hot_logins w n =
  let logins = w.tb.Testbed.built.Population.logins in
  Array.sub (L.shuffle (L.rng (!seed + 104729)) logins) 0 (min n (Array.length logins))

let churn_phase w ~ns =
  let ph = phase () in
  let tb = w.tb in
  let lists = tb.Testbed.built.Population.maillist_names in
  let snap = members_snapshot w lists in
  let is_member l u = List.mem u (Option.value ~default:[] (Hashtbl.find_opt snap l)) in
  let edits = L.edit_stream ~seed:!seed ~hot:(hot_logins w 400) ~lists ~is_member in
  let replies = ref [] in
  let det_steps = det_ops / 2 in
  let c2r = ref 0 in
  snapshot_before w ph;
  let sim0 = Sim.Engine.now tb.Testbed.engine in
  closed_loop ph ~ns ~min_steps:det_steps (fun i ->
      let tuples = edit_and_check ph w w.clients.(i land 1) (edits.L.next ()) in
      if i < det_steps then replies := tuples :: !replies;
      if i = det_steps - 1 then c2r := hist_p99 "prop.commit_to_replica_ms");
  ph.sim_ms <- Sim.Engine.now tb.Testbed.engine - sim0;
  snapshot_after w ph;
  (* undo what is still added, then the starting memberships must be
     back exactly *)
  let drain = phase () in
  List.iter (fun e -> ignore (edit_and_check drain w w.clients.(0) e)) (L.drain edits);
  check "churn restores the starting memberships" (memberships_restored w snap lists);
  ph.det <-
    [ ("reply_digest", Str (digest_of (List.rev !replies)));
      ("commit_to_replica_p99_ms", I !c2r) ];
  ph

(* ---------------- campus_day ---------------- *)

let install_dir = function
  | "HESIOD" -> "/etc/hesiod"
  | "NFS" -> "/var/moira"
  | "MAIL" -> "/usr/lib"
  | _ -> "/etc/athena/acl"

let service_hosts (b : Population.built) = function
  | "HESIOD" -> Array.to_list b.Population.hesiod_machines
  | "NFS" -> Array.to_list b.Population.nfs_machines
  | "MAIL" -> [ b.Population.mail_hub ]
  | _ -> Array.to_list b.Population.zephyr_machines

let host_outcomes (r : Dcm.Manager.report) =
  List.concat_map (fun s -> s.Dcm.Manager.hosts) r.Dcm.Manager.services

let working (r : Dcm.Manager.report) =
  List.exists
    (fun s ->
      (match s.Dcm.Manager.gen with Dcm.Manager.Generated _ -> true | _ -> false)
      || List.exists
           (function _, Dcm.Manager.Updated _ -> true | _ -> false)
           s.Dcm.Manager.hosts)
    r.Dcm.Manager.services

(* Count a DCM run's host pushes as operations. *)
let record_pushes ph r =
  List.iter
    (fun (_, h) ->
      match h with
      | Dcm.Manager.Updated _ -> S.record ph.tally S.Ok
      | Dcm.Manager.Up_to_date -> ()
      | Dcm.Manager.Backed_off _ | Dcm.Manager.Quarantined _ ->
          S.record ph.tally S.Refused
      | Dcm.Manager.Soft_failed _ | Dcm.Manager.Hard_failed _ ->
          S.record ph.tally S.Failed)
    (host_outcomes r);
  List.iter
    (fun s ->
      match s.Dcm.Manager.gen with
      | Dcm.Manager.Gen_failed _ | Dcm.Manager.Locked ->
          S.record ph.tally S.Failed
      | _ -> ())
    r.Dcm.Manager.services

(* Generation and update-server time inside the current DCM cycle, read
   off the span tree. *)
let cycle_split cycle_id =
  (* the cycle's span was finished last; its children follow it *)
  let rec go g u = function
    | s :: rest when s.Trace.id >= cycle_id ->
        if s.Trace.parent <> cycle_id then go g u rest
        else if s.Trace.name = "dcm.generate" then go (g + Trace.dur s) u rest
        else if s.Trace.name = "update.server" then go g (u + Trace.dur s) rest
        else go g u rest
    | _ -> (float_of_int g /. 1e6, float_of_int u /. 1e6)
  in
  go 0 0 !Trace.spans

let installed_matches_fresh w =
  let tb = w.tb and b = w.tb.Testbed.built in
  List.for_all
    (fun (g : Dcm.Gen.t) ->
      let out = g.Dcm.Gen.generate tb.Testbed.glue in
      let dir = install_dir g.Dcm.Gen.service in
      List.for_all
        (fun machine ->
          let fs = Netsim.Host.fs (Testbed.host tb machine) in
          List.for_all
            (fun (name, doc) ->
              let ok =
                Netsim.Vfs.read fs ~path:(dir ^ "/" ^ name)
                = Some (Dcm.Sink.to_string doc)
              in
              check
                (Printf.sprintf "%s:%s/%s equals a fresh generation" machine dir name)
                ok;
              ok)
            (Dcm.Gen.files_for_host out ~machine))
        (service_hosts b g.Dcm.Gen.service))
    Dcm.Manager.standard_generators

let day_minutes = 1440
let burst_minute = 600
let burst_size = 300
let lookups_per_minute = 20

let campus_phase w ~dcm ~final =
  let ph = phase () in
  let tb = w.tb in
  let b = tb.Testbed.built in
  let eng = tb.Testbed.engine in
  let lists = b.Population.maillist_names in
  let snap = members_snapshot w lists in
  let is_member l u = List.mem u (Option.value ~default:[] (Hashtbl.find_opt snap l)) in
  let edits = L.edit_stream ~seed:!seed ~hot:(hot_logins w 4_000) ~lists ~is_member in
  let burst =
    List.init burst_size (fun i -> Printf.sprintf "zb%05d" i)
    |> List.filter (fun l ->
           Moira.Glue.query tb.Testbed.glue ~name:"get_user_by_login" [ l ]
           |> Result.is_error)
  in
  let c = w.clients.(0) and reader = w.clients.(1) in
  let lookups =
    L.lookup_stream ~seed:!seed ~logins:b.Population.logins
      ~lists:(populated_lists w)
  in
  let hes =
    List.map
      (fun (_, h) -> (h, ref (Hesiod.Hes_server.generation h)))
      tb.Testbed.hesiods
  in
  let resolve_login = b.Population.logins.(0) in
  let advance_to t =
    if Sim.Engine.now eng < t then begin
      let t0 = now_ns () in
      Trace.with_span "engine.advance" (fun () -> Sim.Engine.run_until eng t);
      S.add ph.advance (float_of_int (now_ns () - t0) /. 1e6)
    end
  in
  let dcm_cycle () =
    let t0 = now_ns () and gc0 = gc_words () in
    let id = !Trace.next + 1 in
    let r = Trace.with_span "dcm.cycle" (fun () -> Dcm.Manager.run dcm) in
    let wall = now_ns () - t0 in
    let gm0, gj0 = gc0 and gm1, gj1 = gc_words () in
    ph.cycles_run <- ph.cycles_run + 1;
    record_pushes ph r;
    if working r then begin
      let wall_ms = float_of_int wall /. 1e6 in
      S.add ph.cycles wall_ms;
      let gen_ms, upd_ms = cycle_split id in
      let rebuilt, spliced =
        List.fold_left
          (fun (a, s) sr ->
            (a + List.length sr.Dcm.Manager.rebuilt, s + sr.Dcm.Manager.spliced))
          (0, 0) r.Dcm.Manager.services
      in
      ph.cycle_info <-
        {
          wall_ms;
          gen_ms;
          upd_ms;
          rebuilt;
          spliced;
          minor_words = gm1 -. gm0;
          major_words = gj1 -. gj0;
        }
        :: ph.cycle_info;
      ph.push_bytes <- ph.push_bytes + Dcm.Manager.bytes_sent r;
      ph.pushes <- ph.pushes + Dcm.Manager.propagations r
    end;
    (* the first lookup after a push pays the deferred reparse *)
    List.iter
      (fun (h, seen) ->
        let g = Hesiod.Hes_server.generation h in
        if g <> !seen then begin
          seen := g;
          let t0 = now_ns () in
          let answer =
            Trace.with_span "hesiod.first_resolve" (fun () ->
                Hesiod.Hes_server.resolve_local h ~name:resolve_login ~ty:"passwd")
          in
          S.add ph.first_resolve (float_of_int (now_ns () - t0) /. 1e6);
          check "hesiod resolves after a push" (answer <> [])
        end)
      hes
  in
  snapshot_before w ph;
  let packs0 = counter "update.client.full_packs" in
  let start = Sim.Engine.now eng in
  region_start ph;
  for m = 0 to day_minutes - 1 do
    Trace.op := m;
    region_tick ph;
    let minute = start + (m * 60_000) in
    if m mod 15 = 0 then begin
      advance_to minute;
      dcm_cycle ()
    end;
    let due = minute + 30_000 in
    advance_to due;
    S.add ph.lateness (float_of_int (Sim.Engine.now eng - due));
    if m = burst_minute then
      List.iter
        (fun login ->
          let code, _ = rpc ph c (L.edit_op (L.Add_user { login })) in
          record_rpc ph (code = 0);
          check "burst add_user" (code = 0))
        burst;
    ignore (edit_and_check ph w c (edits.L.next ()));
    (* users' lookups, served by the replicas *)
    for _ = 1 to lookups_per_minute do
      let op = lookups () in
      let code, _ = rpc ph reader op in
      record_rpc ph (code = 0);
      if code <> 0 then check ("campus lookup " ^ op.L.name) false
    done
  done;
  advance_to (start + (day_minutes * 60_000));
  region_stop ph;
  ph.sim_ms <- Sim.Engine.now eng - start;
  snapshot_after w ph;
  ph.full_packs <- counter "update.client.full_packs" - packs0;
  ph.commits <- ph.journal1 - ph.journal0;
  let c2s q =
    match Obs.find_histogram Obs.default "prop.commit_to_serving_ms" with
    | Some h when h.Obs.count > 0 -> if q = 50 then h.Obs.p50 else h.Obs.p99
    | _ -> 0
  in
  ph.det <-
    [
      ("commit_to_serving_p50_ms", I (c2s 50));
      ("commit_to_serving_p99_ms", I (c2s 99));
      ("commit_to_replica_p99_ms", I (hist_p99 "prop.commit_to_replica_ms"));
      ("push_bytes", I ph.push_bytes);
      ("commits", I ph.commits);
      ("lateness_p99_ms", F (S.quantile_sorted (S.to_sorted ph.lateness) 0.99));
    ];
  check "commits reached serving hosts during the day" (c2s 50 > 0);
  (* Drain the last world of a run: undo outstanding additions, let
     every service interval elapse, and run the DCM once more.  Every
     serving host must then hold exactly what a fresh full generation of
     the final database produces, and a further cycle must find nothing
     to do.  Earlier worlds are checked through their deterministic
     figures, which must equal the last one's. *)
  if final then begin
    let drain = phase () in
    List.iter (fun e -> ignore (edit_and_check drain w c e)) (L.drain edits);
    check "campus_day restores the starting memberships"
      (memberships_restored w snap lists);
    List.iter
      (fun login ->
        check ("burst user " ^ login ^ " exists")
          (Result.is_ok
             (Moira.Glue.query tb.Testbed.glue ~name:"get_user_by_login" [ login ])))
      burst;
    let settle () =
      Sim.Engine.advance eng (25 * 3_600_000);
      pump tb;
      Dcm.Manager.run dcm
    in
    let drained = settle () in
    check "drain cycle pushes cleanly"
      (List.for_all
         (function
           | _, (Dcm.Manager.Updated _ | Dcm.Manager.Up_to_date) -> true
           | _ -> false)
         (host_outcomes drained));
    ignore (installed_matches_fresh w);
    let idle = settle () in
    check "a cycle after the drain finds nothing to do" (not (working idle))
  end;
  ph

(* ---------------- layer wrappers (traced runs) ---------------- *)

let wrap_service host ~service name ?(observe = fun (_ : string) -> ()) () =
  match Netsim.Host.lookup host ~service with
  | None -> ()
  | Some h ->
      Netsim.Host.register host ~service (fun ~src payload ->
          observe payload;
          Trace.with_span name (fun () -> h ~src payload))

let wrap_generator (g : Dcm.Gen.t) =
  let timed f = Trace.with_span "dcm.generate" f in
  {
    g with
    Dcm.Gen.generate = (fun glue -> timed (fun () -> g.Dcm.Gen.generate glue));
    parts =
      List.map
        (fun (p : Dcm.Gen.part) ->
          {
            p with
            Dcm.Gen.pbuild = (fun glue -> timed (fun () -> p.Dcm.Gen.pbuild glue));
            pincr =
              Option.map
                (fun f glue st -> timed (fun () -> f glue st))
                p.Dcm.Gen.pincr;
          })
        g.Dcm.Gen.parts;
  }

let install_wrappers w =
  let tb = w.tb and b = w.tb.Testbed.built in
  List.iter
    (fun m -> wrap_service (Testbed.host tb m) ~service:"moira" "mr_server.handler" ())
    (b.Population.moira_machine :: Testbed.replica_machines tb);
  let observe payload =
    match Gdb.Wire.decode_request payload with
    | Ok r when r.Gdb.Wire.op = Dcm.Update.op_delta ->
        let d, f = !transfers in
        transfers := (d + 1, f)
    | Ok r when r.Gdb.Wire.op = Dcm.Update.op_xfer ->
        let d, f = !transfers in
        transfers := (d, f + 1)
    | _ -> ()
  in
  List.iter
    (fun m ->
      wrap_service (Testbed.host tb m) ~service:"moira_update" "update.server"
        ~observe ())
    (Testbed.managed_machines tb);
  journal_meter :=
    Some
      (meter
         (Netsim.Host.fs (Testbed.host tb b.Population.moira_machine))
         ~only:(fun p -> p = "/site/sms/journal"));
  install_meters :=
    List.map
      (fun m -> meter (Netsim.Host.fs (Testbed.host tb m)) ~only:(fun _ -> true))
      (Testbed.managed_machines tb)

(* ---------------- metrics ---------------- *)

let p50 s = if S.count s = 0 then 0. else S.quantile_sorted (S.to_sorted s) 0.5
let mean s = if S.count s = 0 then 0. else S.sum s /. float_of_int (S.count s)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b

let whole_run_ops ph = float_of_int (S.count ph.rpcs) /. (float_of_int ph.wall_ns /. 1e9)

(* The bounded throughput: RPCs completed per probe duration, over the
   whole measured region. *)
let ops_per_probe ph = float_of_int (S.count ph.rpcs) /. probe_time ph

let probe_us_p50 ph =
  let s = S.samples () in
  List.iter (fun (_, p) -> S.add s (float_of_int p /. 1e3)) ph.segments;
  p50 s

let median l = S.quantile_sorted (Array.of_list (List.sort Float.compare l)) 0.5

(* Each named figure's median over the measured worlds. *)
let median_over phases figures =
  match List.map figures phases with
  | [] -> []
  | first :: _ as all ->
      List.mapi
        (fun i (name, _, unit) ->
          let value l =
            let _, v, _ = List.nth l i in
            v
          in
          (name, median (List.map value all), unit))
        first

(* A summary with its sample count and reported tail, for the report. *)
let timing name unit s =
  let sm = S.summarize s in
  ( name,
    O
      ([ ("unit", Str unit); ("n", I sm.S.n) ]
      @ (if sm.S.n > 0 then [ ("p50", F sm.S.p50) ] else [])
      @
      match sm.S.tail_p with
      | Some p -> [ ("tail_percentile", F p); ("tail", F sm.S.tail) ]
      | None -> []) )

let percentile_or_zero s p =
  if S.reportable ~n:(S.count s) p then S.percentile s p else 0.

let end_to_end phases ~setup =
  [ ("setup_s", p50 setup, "s") ]
  @ median_over phases (fun ph -> [ ("ops_per_probe", ops_per_probe ph, "ops/probe") ])
  @ [ ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* Figures reported beside the end-to-end metrics but not bounded: RPC
   latencies, which host noise spreads too far for a bound, and figures
   of one workload's own path, defined only where that path runs. *)
let workload_figures ph =
  let c2s q =
    match List.assoc_opt q ph.det with Some (I ms) -> float_of_int ms /. 1000. | _ -> 0.
  in
  [
    ("ops_per_s", whole_run_ops ph, "1/s");
    ("read_p50_us", p50 ph.reads, "us");
    ("read_p99_us", percentile_or_zero ph.reads 99., "us");
    ("rpc_p99_us", percentile_or_zero ph.rpcs 99., "us");
    ("write_p50_us", p50 ph.writes, "us");
    ("write_p99_us", percentile_or_zero ph.writes 99., "us");
    ("failed_frac", S.failed_frac ph.tally, "ratio");
    ("dcm_cycle_p50_ms", p50 ph.cycles, "ms");
    ( "wall_s_per_sim_day",
      (if !workload <> "campus_day" then 0.
       else float_of_int ph.wall_ns /. 1e9 /. (float_of_int ph.sim_ms /. 86_400_000.)),
      "s" );
    ("commit_to_serving_p50_s", c2s "commit_to_serving_p50_ms", "s");
    ("commit_to_serving_p99_s", c2s "commit_to_serving_p99_ms", "s");
    ( "commit_to_replica_p99_ms",
      float_of_int
        (match List.assoc_opt "commit_to_replica_p99_ms" ph.det with
        | Some (I v) -> v
        | _ -> 0),
      "ms" );
    ("push_bytes_per_commit", ratio ph.push_bytes ph.commits, "B");
    ("loadgen.lateness_p99_ms", percentile_or_zero ph.lateness 99., "ms");
  ]

let layer_metrics w ph ~untraced =
  let tb = w.tb in
  let self = Trace.self_times () in
  let ids = Trace.by_id () in
  let samples_of l f =
    let s = S.samples () in
    List.iter (fun x -> S.add s (f x)) l;
    s
  in
  let rpc_spans =
    List.filter
      (fun s -> s.Trace.name = "rpc.read" || s.Trace.name = "rpc.write")
      !Trace.spans
  in
  let handler_under kind =
    List.filter
      (fun s ->
        match Hashtbl.find_opt ids s.Trace.parent with
        | Some p -> p.Trace.name = kind
        | None -> false)
      (Trace.named "mr_server.handler")
  in
  let us s = float_of_int (Trace.dur s) /. 1e3 in
  let rh = samples_of (handler_under "rpc.read") us in
  let wh = samples_of (handler_under "rpc.write") us in
  let client_self = samples_of rpc_spans (fun s -> float_of_int (self s) /. 1e3) in
  (* the same reads, straight through the glue library *)
  let glue = S.samples () in
  Queue.iter
    (fun (name, args) ->
      let t0 = now_ns () in
      ignore (Moira.Glue.query tb.Testbed.glue ~name args);
      S.add glue (float_of_int (now_ns () - t0) /. 1e3))
    ph.replay;
  let ops = S.count ph.rpcs in
  let nreads = S.count ph.reads and nwrites = S.count ph.writes in
  let d (a, _) (b, _) = b - a and d2 (_, a) (_, b) = b - a in
  let dg (a, _) (b, _) = b -. a and dg2 (_, a) (_, b) = b -. a in
  let hits = d ph.plan0 ph.plan1 and misses = d2 ph.plan0 ph.plan1 in
  let cycles = ph.cycle_info in
  let working = List.length cycles in
  let sum f = List.fold_left (fun a x -> a + f x) 0 cycles in
  let fsum f = List.fold_left (fun a x -> a +. f x) 0. cycles in
  let gen_ms = samples_of cycles (fun c -> c.gen_ms) in
  let push_ms = samples_of cycles (fun c -> c.wall_ms -. c.gen_ms) in
  let rebuilt = sum (fun c -> c.rebuilt) and spliced = sum (fun c -> c.spliced) in
  let upd_ms = fsum (fun c -> c.upd_ms) in
  let gcm = fsum (fun c -> c.minor_words) and gcj = fsum (fun c -> c.major_words) in
  let sim_min = float_of_int ph.sim_ms /. 60_000. in
  let u_ops, u_read50, u_rpc_mean, u_wall = untraced in
  let t_ops = ops_per_probe ph and t_read50 = p50 ph.reads in
  [
    ("mr_client.self_us_p50", p50 client_self, "us");
    ("mr_server.read_handler_us_p50", p50 rh, "us");
    ("mr_server.read_handler_us_p99", percentile_or_zero rh 99., "us");
    ("mr_server.write_handler_us_p50", p50 wh, "us");
    ("mr_server.write_handler_us_p99", percentile_or_zero wh 99., "us");
    ("glue.query_us_p50", p50 glue, "us");
    ("net.calls_per_op", ratio (d ph.net0 ph.net1) ops, "count");
    ("net.bytes_per_op", ratio (d2 ph.net0 ph.net1) ops, "B");
    ("replica.read_share", ratio (d ph.bounce0 ph.bounce1) nreads, "ratio");
    ("replica.stale_bounces_per_read", ratio (d2 ph.bounce0 ph.bounce1) nreads, "ratio");
    ("plan.cache_hit_rate", ratio hits (hits + misses), "ratio");
    ("rows_per_read", ratio ph.rows nreads, "count");
    ("journal.entries_per_write", ratio (ph.journal1 - ph.journal0) nwrites, "count");
    ("journal.file_bytes_written_per_write", ratio ph.journal_written nwrites, "B");
    ("journal.write_amp", ratio ph.journal_written ph.journal_grown, "ratio");
    ("repl.lag_entries_p99", float_of_int ph.repl_lag_p99, "count");
    ("repl.apply_delay_ms_p99", float_of_int ph.repl_apply_p99, "ms");
    ("engine.advance_ms_per_sim_min", fratio (S.sum ph.advance) sim_min, "ms");
    ("dcm.generate_ms", p50 gen_ms, "ms");
    ("dcm.push_ms", p50 push_ms, "ms");
    ("dcm.parts_rebuilt_per_cycle", ratio rebuilt working, "count");
    ("dcm.splice_ratio", ratio spliced (rebuilt + spliced), "ratio");
    ("update.server_ms_per_cycle", fratio upd_ms (float_of_int working), "ms");
    ("update.bytes_per_push", ratio ph.push_bytes ph.pushes, "B");
    ( "update.delta_push_share",
      (let d, f = ph.transfers_seen in
       ratio d (d + f)),
      "ratio" );
    ("update.full_packs", float_of_int ph.full_packs, "count");
    ("install.bytes_written_per_cycle", ratio ph.install_written working, "B");
    ("hesiod.first_resolve_ms", p50 ph.first_resolve, "ms");
    ("gc.minor_words_per_op", fratio (dg ph.gc0 ph.gc1) (float_of_int ops), "words");
    ("gc.major_words_per_op", fratio (dg2 ph.gc0 ph.gc1) (float_of_int ops), "words");
    ("gc.minor_words_per_cycle", fratio gcm (float_of_int working), "words");
    ("gc.major_words_per_cycle", fratio gcj (float_of_int working), "words");
    ("reconcile.rpc_us_mean", mean (samples_of rpc_spans us), "us");
    ( "reconcile.client_self_plus_handler_us_mean",
      mean client_self
      +. (if rpc_spans = [] then 0.
          else (S.sum rh +. S.sum wh) /. float_of_int (List.length rpc_spans)),
      "us" );
    ("reconcile.untraced_rpc_us_mean", u_rpc_mean, "us");
    ("reconcile.cycle_ms_mean", mean ph.cycles, "ms");
    ("reconcile.generate_plus_push_ms_mean", mean gen_ms +. mean push_ms, "ms");
    ("trace_overhead.ops_per_probe_frac", fratio (u_ops -. t_ops) u_ops, "ratio");
    ("trace_overhead.read_p50_frac", fratio (t_read50 -. u_read50) u_read50, "ratio");
    ( "trace_overhead.wall_frac",
      (if !workload = "campus_day" then
         fratio (float_of_int ph.wall_ns -. u_wall) u_wall
       else 0.),
      "ratio" );
  ]
  @ workload_figures ph

(* ---------------- provenance and output ---------------- *)

let provenance () =
  let tm = Unix.gmtime (Unix.time ()) in
  O
    [
      ("commit", Str !commit);
      ("ocaml", Str Sys.ocaml_version);
      ("nproc", I (Domain.recommended_domain_count ()));
      ( "date",
        Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec) );
      ("seed", I !seed);
      ("workload", Str !workload);
      ("trace", I !trace);
      ("seconds", I !seconds);
    ]

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Same seed, same code: the deterministic figures must repeat exactly.
   The first run of a (commit, workload, seed) records them; every later
   one compares. *)
let check_determinism det =
  let dir = Filename.concat out_dir "det" in
  ensure_dir dir;
  let path =
    Filename.concat dir (Printf.sprintf "%s-%s-%d.json" !commit !workload !seed)
  in
  let now = to_json (O det) in
  if Sys.file_exists path then
    check ("deterministic figures repeat: " ^ path) (read_file path = now)
  else begin
    let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
    write_file tmp now;
    Sys.rename tmp path
  end

let metric_obj l =
  O (List.map (fun (n, v, u) -> (n, O [ ("value", F v); ("unit", Str u) ])) l)

(* ---------------- main ---------------- *)

(* Worlds a run sets up; set-up time is their median.  Other tenants of
   the host slow the whole process for seconds to minutes at a time, so
   lookup and campus_day measure every world they set up, each for a
   share of the run or for one simulated day, and report medians over
   the worlds: a slow stretch then moves one sample, not the result.
   churn measures only the last world, for the whole run, because its
   writes grow dearer as the journal grows and a shorter run would hide
   that.  campus_day sets up two: each takes about 18 s, and a run must
   end within 180 s.  A traced run sets up one plain world and one
   wrapped one. *)
let worlds =
  if traced then 1
  else match !workload with "lookup" -> 5 | "campus_day" -> 2 | _ -> 3
let measures k = !workload <> "churn" || k = worlds

let run_phase w ~final =
  let share = if traced then 2 else if !workload = "lookup" then worlds else 1 in
  let ns = !seconds * 1_000_000_000 / share in
  match !workload with
  | "lookup" -> lookup_phase w ~ns
  | "churn" -> churn_phase w ~ns
  | _ -> campus_phase w ~dcm:(Option.get w.dcm) ~final

let first_report_ok w =
  match w.first_report with
  | None -> ()
  | Some r ->
      check "first DCM cycle updates every managed host"
        (List.length
           (List.filter
              (function _, Dcm.Manager.Updated _ -> true | _ -> false)
              (host_outcomes r))
        = List.length (Testbed.managed_machines w.tb))

let timed_setup ~generators =
  Relation.Plan.reset_cache ();
  Gc.compact ();
  let t0 = now_ns () in
  let w = build_world ~generators in
  let dt = float_of_int (now_ns () - t0) /. 1e9 in
  first_report_ok w;
  (w, dt)

let () =
  ensure_dir out_dir;
  let setup = S.samples () in
  (* the measured worlds' phases, oldest first *)
  let phases =
    List.concat_map
      (fun k ->
        let w, dt = timed_setup ~generators:Dcm.Manager.standard_generators in
        S.add setup dt;
        if measures k then [ run_phase w ~final:(k = worlds) ] else [])
      (List.init worlds (fun k -> k + 1))
  in
  let ph = List.nth phases (List.length phases - 1) in
  List.iter
    (fun p -> check "every world gives the same deterministic figures" (p.det = ph.det))
    phases;
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let attempted = ref (sum (fun p -> p.tally.S.attempted))
  and failed = ref (sum (fun p -> S.not_ok p.tally)) in
  let e2e = end_to_end phases ~setup in
  let figures = median_over phases workload_figures in
  let merged f =
    let m = S.samples () in
    List.iter
      (fun p ->
        let s = f p in
        for i = 0 to S.count s - 1 do
          S.add m s.S.data.(i)
        done)
      phases;
    m
  in
  let det = ref ph.det in
  let final_metrics, extra =
    if not traced then (e2e, [])
    else begin
      let untraced =
        (ops_per_probe ph, p50 ph.reads, mean ph.rpcs, float_of_int ph.wall_ns)
      in
      (* a second world, wrapped, runs the same load *)
      let w2, _ =
        timed_setup
          ~generators:(List.map wrap_generator Dcm.Manager.standard_generators)
      in
      install_wrappers w2;
      Trace.on := true;
      let ph2 = run_phase w2 ~final:true in
      Trace.on := false;
      attempted := !attempted + ph2.tally.S.attempted;
      failed := !failed + S.not_ok ph2.tally;
      check "traced and untraced runs agree on deterministic figures" (ph2.det = ph.det);
      det := ph2.det;
      let layers = layer_metrics w2 ph2 ~untraced in
      Trace.write
        (Filename.concat out_dir
           (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      (layers, [ ("untraced_end_to_end", metric_obj e2e) ])
    end
  in
  check_determinism !det;
  let correct = !failure_count = 0 in
  let report =
    O
      ([
         ("provenance", provenance ());
         ("correct", B correct);
         ("check_failures", I !failure_count);
         ("failures", A (List.rev_map (fun s -> Str s) !failures));
         ("attempted", I !attempted);
         ("failed", I !failed);
         ("deterministic", O !det);
         ("measured_worlds", I (List.length phases));
         ( "timings",
           O
             [
               timing "setup_s" "s" setup;
               timing "read_us" "us" (merged (fun p -> p.reads));
               timing "write_us" "us" (merged (fun p -> p.writes));
               timing "rpc_us" "us" (merged (fun p -> p.rpcs));
               timing "dcm_cycle_ms" "ms" (merged (fun p -> p.cycles));
             ] );
         ( "per_world",
           let series s = A (List.init (S.count s) (fun i -> F s.S.data.(i))) in
           A
             (List.map
                (fun p ->
                  O
                    [
                      ("ops_per_probe", F (ops_per_probe p));
                      ("ops_per_s", F (whole_run_ops p));
                      ("probe_us_p50", F (probe_us_p50 p));
                      ("wall_s", F (float_of_int p.wall_ns /. 1e9));
                      ("windows_ops_per_s", series p.windows);
                    ])
                phases) );
         ("end_to_end", metric_obj e2e);
         ("workload_figures", metric_obj figures);
       ]
      @ extra
      @ if traced then [ ("per_layer", metric_obj final_metrics) ] else [])
  in
  let report_s = to_json report in
  write_file
    (Filename.concat out_dir
       (Printf.sprintf "report-%s-%d-trace%d.json" !workload !seed !trace))
    report_s;
  print_endline report_s;
  print_endline
    (to_json
       (O
          [
            ("correct", B correct);
            ("attempted", I (max 1 !attempted));
            ("failed", I !failed);
            ("metrics", metric_obj final_metrics);
          ]));
  if not correct then exit 1
