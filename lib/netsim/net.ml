type failure =
  | Host_down
  | No_host
  | No_service
  | Timeout
  | Remote_crash of string

let failure_to_string = function
  | Host_down -> "host is down"
  | No_host -> "no such host"
  | No_service -> "connection refused (no such service)"
  | Timeout -> "connection timed out"
  | Remote_crash p -> Printf.sprintf "peer crashed (%s)" p

type stats = {
  calls : int;
  bytes : int;
  failures : int;
  req_dropped : int;
  reply_dropped : int;
  partitioned : int;
  down : int;
  crashed : int;
  wasted_bytes : int;
}

(* The traffic counters live in an [Obs] registry (a private one unless
   the caller shares its own), so the same numbers that [stats] reports
   are visible to stats queries, benches and traces. *)
type counters = {
  c_calls : Obs.Counter.counter;
  c_bytes : Obs.Counter.counter;
  c_bytes_req : Obs.Counter.counter;
  c_bytes_reply : Obs.Counter.counter;
  c_failures : Obs.Counter.counter;
  c_req_dropped : Obs.Counter.counter;
  c_reply_dropped : Obs.Counter.counter;
  c_partitioned : Obs.Counter.counter;
  c_down : Obs.Counter.counter;
  c_crashed : Obs.Counter.counter;
  c_wasted : Obs.Counter.counter;
}

let make_counters o =
  {
    c_calls = Obs.Counter.make o "net.calls";
    c_bytes = Obs.Counter.make o "net.bytes";
    c_bytes_req = Obs.Counter.make o "net.bytes_req";
    c_bytes_reply = Obs.Counter.make o "net.bytes_reply";
    c_failures = Obs.Counter.make o "net.failures";
    c_req_dropped = Obs.Counter.make o "net.req_dropped";
    c_reply_dropped = Obs.Counter.make o "net.reply_dropped";
    c_partitioned = Obs.Counter.make o "net.partitioned";
    c_down = Obs.Counter.make o "net.down";
    c_crashed = Obs.Counter.make o "net.crashed";
    c_wasted = Obs.Counter.make o "net.wasted_bytes";
  }

(* Per-link fault state, keyed by the unordered host pair. *)
type link = {
  mutable l_drop : float;
  mutable l_reply_drop : float;
  mutable l_latency_ms : int;
}

type armed_reply_drop = { mutable skip : int; mutable drop : int }

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  by_name : (string, Host.t) Hashtbl.t;
  mutable order : string list;
  mutable drop_rate : float;
  mutable reply_drop_rate : float;
  links : (string * string, link) Hashtbl.t;
  partition : (string, int) Hashtbl.t;
  mutable partition_gen : int;
  armed_replies : (string, armed_reply_drop) Hashtbl.t;
  obs : Obs.t;
  ctr : counters;
  mutable trace_calls : bool;
}

(* The latency model: a successful call costs [base_rtt_ms] plus
   [per_kb_ms] per KiB moved; a lost message costs [timeout_ms]. *)
let base_rtt_ms = 4
let per_kb_ms = 1
let timeout_ms = 30_000

let create ?obs engine =
  let obs =
    match obs with
    | Some o -> o
    | None ->
        (* A private registry keeps per-instance stats semantics: two
           nets on one engine never share counters unless asked to. *)
        let o = Obs.create () in
        Obs.set_clock o (Sim.Engine.clock engine);
        o
  in
  {
    engine;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    by_name = Hashtbl.create 31;
    order = [];
    drop_rate = 0.0;
    reply_drop_rate = 0.0;
    links = Hashtbl.create 7;
    partition = Hashtbl.create 7;
    partition_gen = 0;
    armed_replies = Hashtbl.create 7;
    obs;
    ctr = make_counters obs;
    trace_calls = false;
  }

let engine t = t.engine
let obs t = t.obs
let set_trace_calls t on = t.trace_calls <- on

let add_host t name =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Net.add_host: duplicate host %S" name);
  let h = Host.create name in
  Hashtbl.replace t.by_name name h;
  t.order <- name :: t.order;
  h

let host t name =
  match Hashtbl.find_opt t.by_name name with
  | Some h -> h
  | None -> raise Not_found

let host_opt t name = Hashtbl.find_opt t.by_name name
let hosts t = List.rev_map (fun n -> host t n) t.order

let link_key a b = if String.compare a b <= 0 then (a, b) else (b, a)

let link_of t a b =
  match Hashtbl.find_opt t.links (link_key a b) with
  | Some l -> l
  | None ->
      let l = { l_drop = 0.0; l_reply_drop = 0.0; l_latency_ms = 0 } in
      Hashtbl.replace t.links (link_key a b) l;
      l

(* Per-link metric names use the unordered pair, lowercased:
   [net.link.<a>:<b>.drop.<kind>], [net.link.<a>:<b>.wasted_bytes].
   They are created lazily on the failure paths only, so a healthy
   link never materializes metrics. *)
let link_slug a b =
  let a, b = link_key a b in
  String.lowercase_ascii a ^ ":" ^ String.lowercase_ascii b

let link_drop t ~src ~dst ~kind ~wasted =
  let base = "net.link." ^ link_slug src dst in
  Obs.Counter.incr (Obs.Counter.make t.obs (base ^ ".drop." ^ kind));
  if wasted > 0 then
    Obs.Counter.add (Obs.Counter.make t.obs (base ^ ".wasted_bytes")) wasted

let set_link_faults t ~a ~b ?drop ?reply_drop ?latency_ms () =
  let l = link_of t a b in
  Option.iter (fun r -> l.l_drop <- r) drop;
  Option.iter (fun r -> l.l_reply_drop <- r) reply_drop;
  Option.iter
    (fun ms ->
      l.l_latency_ms <- ms;
      Obs.Gauge.set
        (Obs.Gauge.make t.obs ("net.link." ^ link_slug a b ^ ".latency_ms"))
        ms)
    latency_ms

let clear_link_faults t = Hashtbl.reset t.links

(* Combined loss probability of two independent layers. *)
let layered a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

let set_partition t groups =
  Hashtbl.reset t.partition;
  List.iter
    (fun group ->
      t.partition_gen <- t.partition_gen + 1;
      let gid = t.partition_gen in
      List.iter (fun h -> Hashtbl.replace t.partition h gid) group)
    groups

let clear_partition t = Hashtbl.reset t.partition

let partitioned t src dst =
  if Hashtbl.length t.partition = 0 then false
  else
    match (Hashtbl.find_opt t.partition src, Hashtbl.find_opt t.partition dst) with
    | None, None -> false
    | Some a, Some b -> a <> b
    | Some _, None | None, Some _ -> true

let partition_window t ~hosts ~at ~duration_ms =
  let gid = ref 0 in
  ignore
    (Sim.Engine.schedule t.engine ~at "partition:start" (fun () ->
         t.partition_gen <- t.partition_gen + 1;
         gid := t.partition_gen;
         List.iter (fun h -> Hashtbl.replace t.partition h !gid) hosts));
  ignore
    (Sim.Engine.schedule t.engine ~at:(at + duration_ms) "partition:heal"
       (fun () ->
         List.iter
           (fun h ->
             match Hashtbl.find_opt t.partition h with
             | Some g when g = !gid -> Hashtbl.remove t.partition h
             | _ -> ())
           hosts))

let schedule_outage t ~host ~at ~duration_ms =
  ignore
    (Sim.Engine.schedule t.engine ~at ("outage:" ^ host) (fun () ->
         match host_opt t host with
         | Some h when Host.is_up h -> Host.crash h
         | _ -> ()));
  ignore
    (Sim.Engine.schedule t.engine ~at:(at + duration_ms) ("reboot:" ^ host)
       (fun () ->
         match host_opt t host with
         | Some h when not (Host.is_up h) -> Host.boot h
         | _ -> ()))

let arm_reply_drop t ~dst ?(skip = 0) n =
  Hashtbl.replace t.armed_replies dst { skip; drop = n }

(* Does an armed deterministic reply drop fire for this (successful)
   handler execution on [dst]? *)
let armed_reply_fires t dst =
  match Hashtbl.find_opt t.armed_replies dst with
  | None -> false
  | Some a ->
      if a.skip > 0 then begin
        a.skip <- a.skip - 1;
        false
      end
      else if a.drop > 0 then begin
        a.drop <- a.drop - 1;
        if a.drop = 0 then Hashtbl.remove t.armed_replies dst;
        true
      end
      else begin
        Hashtbl.remove t.armed_replies dst;
        false
      end

let charge t bytes =
  let cost = base_rtt_ms + (per_kb_ms * (bytes / 1024)) in
  Sim.Engine.advance t.engine cost

let failure_slug = function
  | Host_down -> "host_down"
  | No_host -> "no_host"
  | No_service -> "no_service"
  | Timeout -> "timeout"
  | Remote_crash _ -> "remote_crash"

let fail t ~src ~dst ~service failure =
  Obs.Counter.incr t.ctr.c_failures;
  Obs.instant t.obs "net.fail"
    ~attrs:
      [ ("kind", failure_slug failure); ("src", src); ("dst", dst); ("service", service) ];
  Error failure

let call t ~src ~dst ~service payload =
  let req_len = String.length payload in
  let fail = fail t ~src ~dst ~service in
  Obs.Counter.incr t.ctr.c_calls;
  Obs.Counter.add t.ctr.c_bytes req_len;
  Obs.Counter.add t.ctr.c_bytes_req req_len;
  Obs.Counter.incr (Obs.Counter.make t.obs ("net.service." ^ service ^ ".calls"));
  let svc_bytes = Obs.Counter.make t.obs ("net.service." ^ service ^ ".bytes") in
  Obs.Counter.add svc_bytes req_len;
  if t.trace_calls then
    Obs.instant t.obs "net.send"
      ~attrs:[ ("src", src); ("dst", dst); ("service", service) ];
  let waste extra = Obs.Counter.add t.ctr.c_wasted extra in
  match Hashtbl.find_opt t.by_name dst with
  | None ->
      charge t 0;
      fail No_host
  | Some _ when partitioned t src dst ->
      (* Neither side can reach the other: indistinguishable from loss. *)
      Obs.Counter.incr t.ctr.c_partitioned;
      link_drop t ~src ~dst ~kind:"partition" ~wasted:req_len;
      waste req_len;
      Sim.Engine.advance t.engine timeout_ms;
      fail Timeout
  | Some h when not (Host.is_up h) ->
      (* A down host looks like a connection that never completes. *)
      Obs.Counter.incr t.ctr.c_down;
      link_drop t ~src ~dst ~kind:"host_down" ~wasted:req_len;
      waste req_len;
      Sim.Engine.advance t.engine timeout_ms;
      fail Host_down
  | Some h ->
      let lk = Hashtbl.find_opt t.links (link_key src dst) in
      let extra_ms = match lk with Some l -> l.l_latency_ms | None -> 0 in
      let req_drop =
        layered t.drop_rate (match lk with Some l -> l.l_drop | None -> 0.0)
      in
      if req_drop > 0.0 && Sim.Rng.chance t.rng req_drop then begin
        (* Request lost in flight: the handler never runs (at-most-once). *)
        Obs.Counter.incr t.ctr.c_req_dropped;
        Obs.instant t.obs "net.drop"
          ~attrs:[ ("kind", "request"); ("src", src); ("dst", dst); ("service", service) ];
        link_drop t ~src ~dst ~kind:"request" ~wasted:req_len;
        waste req_len;
        Sim.Engine.advance t.engine timeout_ms;
        fail Timeout
      end
      else begin
        match Host.lookup h ~service with
        | None ->
            charge t 0;
            fail No_service
        | Some handler -> (
            charge t req_len;
            if extra_ms > 0 then Sim.Engine.advance t.engine extra_ms;
            match handler ~src payload with
            | reply ->
                let rep_len = String.length reply in
                Obs.Counter.add t.ctr.c_bytes rep_len;
                Obs.Counter.add t.ctr.c_bytes_reply rep_len;
                Obs.Counter.add svc_bytes rep_len;
                charge t rep_len;
                if extra_ms > 0 then Sim.Engine.advance t.engine extra_ms;
                let rep_drop =
                  layered t.reply_drop_rate
                    (match lk with Some l -> l.l_reply_drop | None -> 0.0)
                in
                if
                  armed_reply_fires t dst
                  || (rep_drop > 0.0 && Sim.Rng.chance t.rng rep_drop)
                then begin
                  (* The handler DID run; only the reply vanished.  The
                     caller cannot tell this from request loss — this is
                     the retry-idempotence hazard the update protocol
                     must survive. *)
                  Obs.Counter.incr t.ctr.c_reply_dropped;
                  Obs.instant t.obs "net.drop"
                    ~attrs:
                      [ ("kind", "reply"); ("src", src); ("dst", dst); ("service", service) ];
                  link_drop t ~src ~dst ~kind:"reply"
                    ~wasted:(req_len + rep_len);
                  waste (req_len + rep_len);
                  Sim.Engine.advance t.engine timeout_ms;
                  fail Timeout
                end
                else begin
                  if t.trace_calls then
                    Obs.instant t.obs "net.deliver"
                      ~attrs:[ ("src", src); ("dst", dst); ("service", service) ];
                  Ok reply
                end
            | exception Host.Crashed point ->
                Obs.Counter.incr t.ctr.c_crashed;
                link_drop t ~src ~dst ~kind:"crash" ~wasted:req_len;
                waste req_len;
                Sim.Engine.advance t.engine timeout_ms;
                fail (Remote_crash point))
      end

let set_drop_rate t rate = t.drop_rate <- rate
let set_reply_drop_rate t rate = t.reply_drop_rate <- rate

let stats t =
  {
    calls = Obs.Counter.get t.ctr.c_calls;
    bytes = Obs.Counter.get t.ctr.c_bytes;
    failures = Obs.Counter.get t.ctr.c_failures;
    req_dropped = Obs.Counter.get t.ctr.c_req_dropped;
    reply_dropped = Obs.Counter.get t.ctr.c_reply_dropped;
    partitioned = Obs.Counter.get t.ctr.c_partitioned;
    down = Obs.Counter.get t.ctr.c_down;
    crashed = Obs.Counter.get t.ctr.c_crashed;
    wasted_bytes = Obs.Counter.get t.ctr.c_wasted;
  }

let reset_stats t =
  let zero c = Obs.Counter.add c (-Obs.Counter.get c) in
  zero t.ctr.c_calls;
  zero t.ctr.c_bytes;
  zero t.ctr.c_bytes_req;
  zero t.ctr.c_bytes_reply;
  zero t.ctr.c_failures;
  zero t.ctr.c_req_dropped;
  zero t.ctr.c_reply_dropped;
  zero t.ctr.c_partitioned;
  zero t.ctr.c_down;
  zero t.ctr.c_crashed;
  zero t.ctr.c_wasted
