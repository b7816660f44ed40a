type t = {
  engine : Sim.Engine.t;
  net : Netsim.Net.t;
  kdc : Krb.Kdc.t;
  mdb : Moira.Mdb.t;
  server : Moira.Mr_server.t;
  glue : Moira.Glue.t;
  dcm : Dcm.Manager.t;
  built : Population.built;
  hesiods : (string * Hesiod.Hes_server.t) list;
  zephyrs : (string * Zephyr.t) list;
  pops : (string * Pop.Pop_server.t) list;
  mailhub : Pop.Mailhub.t;
  userreg : Userreg.server;
  sanitizer : Dcm.Sanitizer.t option;
      (* present when created with ~sanitize:true *)
  repl_primary : Relation.Replicate.primary option;
  replicas : (string * Moira.Mr_server.replica) list;
  lanes : (string * Obs.t) list;
      (* per-host span registries for the serving hosts and replicas;
         head = the Moira machine's (Obs.default) *)
}

let obs (_ : t) = Obs.default

let lanes t = t.lanes

let trace_json ?trace t = Obs.merge_trace_json ?trace t.lanes

let hesiod_dir = "/etc/hesiod"
let zephyr_acl_dir = "/etc/athena/acl"
let nfs_dir = "/var/moira"
let mail_dir = "/usr/lib"

(* The nfs.sh install script: land the files, then act on them — create
   lockers named in the .dirs files and record quotas, the simulated
   equivalent of the mkdir/chown/setquota loop of section 5.8.2. *)
let nfs_script host ~staged ~members =
  match Dcm.Update.install_files host ~dir:nfs_dir () ~staged ~members with
  | Error _ as e -> e
  | Ok () ->
      let fs = Netsim.Host.fs host in
      List.iter
        (fun path ->
          let base = Filename.basename path in
          if Filename.check_suffix base ".dirs" then begin
            match Netsim.Vfs.read fs ~path with
            | None -> ()
            | Some contents ->
                List.iter
                  (fun line ->
                    match String.split_on_char ' ' (String.trim line) with
                    | [ dir; uid; gid; ty ] ->
                        let marker = dir ^ "/.dirinfo" in
                        if not (Netsim.Vfs.exists fs ~path:marker) then
                          Netsim.Vfs.write fs ~path:marker
                            (Printf.sprintf "%s %s %s" uid gid ty)
                    | _ -> ())
                  (String.split_on_char '\n' contents)
          end
          else if Filename.check_suffix base ".quotas" then begin
            match Netsim.Vfs.read fs ~path with
            | None -> ()
            | Some contents ->
                List.iter
                  (fun line ->
                    match String.split_on_char ' ' (String.trim line) with
                    | [ uid; quota ] ->
                        Netsim.Vfs.write fs
                          ~path:(nfs_dir ^ "/quotas/" ^ uid)
                          quota
                    | _ -> ())
                  (String.split_on_char '\n' contents)
          end)
        (Netsim.Vfs.list fs);
      Netsim.Vfs.flush fs;
      Ok ()

(* The clock starts at (roughly) January 1988 so that "unix format time"
   fields are plausible and strictly positive — a freshly created
   service's dfgen of 0 must compare earlier than any row modtime. *)
let epoch_1988_ms = 568_000_000_000

let replica_machine i = Printf.sprintf "MOIRA-REPLICA-%d.MIT.EDU" (i + 1)

let create ?(spec = Population.small) ?backend ?access_cache ?(dcm_every_min = 15) ?retry ?(sanitize = false) ?(replicas = 0) ?(repl_poll_ms = 1_000) ?repl_retain () =
  let engine =
    Sim.Engine.create ~seed:spec.Population.seed ~start:epoch_1988_ms ()
  in
  (* One registry for the whole testbed: reset the global one (handles
     cached by Relation.Plan/Table stay valid), clock it off the engine,
     and hand it to every layer — so a stats query through the Moira
     protocol sees the same counters the benches and traces read. *)
  Obs.reset Obs.default;
  Sim.Engine.attach_obs engine Obs.default;
  let net = Netsim.Net.create ~obs:Obs.default engine in
  let clock = Sim.Engine.clock_sec engine in
  let kdc = Krb.Kdc.create ~clock () in
  let mdb = Moira.Mdb.create ~clock in
  let glue =
    Moira.Glue.create ~mdb ~registry:(Moira.Catalog.make ()) ()
  in
  let built = Population.build ~glue ~kdc spec in
  (* span uids are origin-prefixed so contexts stay unambiguous when
     lanes are merged; the global registry is the Moira machine's lane *)
  Obs.set_origin Obs.default
    (String.lowercase_ascii built.Population.moira_machine);
  (* every other serving host records its spans into its own lane
     registry, clocked off the same engine *)
  let lanes = ref [] in
  let lane machine =
    let o = Obs.create () in
    Obs.set_clock o (Sim.Engine.clock engine);
    Obs.set_origin o (String.lowercase_ascii machine);
    lanes := (machine, o) :: !lanes;
    o
  in

  (* hosts for every machine in the database *)
  let all_machines =
    Population.machines_of spec built
    @ Array.to_list built.Population.workstation_machines
  in
  List.iter (fun m -> ignore (Netsim.Net.add_host net m)) all_machines;
  let moira_host = Netsim.Net.host net built.Population.moira_machine in

  (* the Moira server, with Trigger_DCM wired to an immediate run *)
  let dcm_ref = ref None in
  let trigger_dcm () =
    match !dcm_ref with
    | Some dcm -> ignore (Dcm.Manager.run dcm)
    | None -> ()
  in
  let server =
    Moira.Mr_server.create ?backend ?access_cache ~net ~host:moira_host ~mdb
      ~kdc ~trigger_dcm ()
  in

  (* managed hosts: update service plus the service itself *)
  let hesiods =
    Array.to_list built.Population.hesiod_machines
    |> List.map (fun m ->
           let h = Netsim.Net.host net m in
           let hes = Hesiod.Hes_server.start ~dir:hesiod_dir h in
           let up = Dcm.Update.serve ~obs:(lane m) h in
           Dcm.Update.register_script up ~name:"hesiod.sh"
             (Dcm.Update.install_files h ~dir:hesiod_dir
                ~after:(fun () -> Hesiod.Hes_server.restart hes)
                ());
           (m, hes))
  in
  Array.iter
    (fun m ->
      let h = Netsim.Net.host net m in
      let up = Dcm.Update.serve ~obs:(lane m) h in
      Dcm.Update.register_script up ~name:"nfs.sh" (nfs_script h))
    built.Population.nfs_machines;
  let mail_host = Netsim.Net.host net built.Population.mail_hub in
  let mail_up =
    Dcm.Update.serve ~obs:(lane built.Population.mail_hub) mail_host
  in
  Dcm.Update.register_script mail_up ~name:"mail.sh"
    (Dcm.Update.install_files mail_host ~dir:mail_dir ());
  (* post offices, and the sendmail stand-in on the hub *)
  let pops =
    Array.to_list built.Population.pop_machines
    |> List.map (fun m ->
           (m, Pop.Pop_server.start (Netsim.Net.host net m)))
  in
  (* "ATHENA-PO-2.LOCAL" names the machine whose hostname starts with
     "ATHENA-PO-2." *)
  let po_of_short short =
    let prefix = String.uppercase_ascii short ^ "." in
    Array.find_opt
      (fun m ->
        String.length m >= String.length prefix
        && String.sub m 0 (String.length prefix) = prefix)
      built.Population.pop_machines
  in
  let mailhub =
    Pop.Mailhub.start ~aliases_path:(mail_dir ^ "/aliases") ~po_of_short net
      mail_host
  in
  let zephyrs =
    Array.to_list built.Population.zephyr_machines
    |> List.map (fun m ->
           let h = Netsim.Net.host net m in
           let z = Zephyr.start ~acl_dir:zephyr_acl_dir h engine in
           let up = Dcm.Update.serve ~obs:(lane m) h in
           Dcm.Update.register_script up ~name:"zephyr.sh"
             (Dcm.Update.install_files h ~dir:zephyr_acl_dir
                ~after:(fun () -> Zephyr.reload_acls z)
                ());
           (m, z))
  in

  (* the server daemon's on-disk journal file (section 5.2.2).  The tee
     is installed only now, after [Population.build] loaded the campus,
     so the file holds just the changes committed since; and each commit
     reads the whole file back and rewrites it with one more line (no
     append primitive), O(journal) bytes per write.  With no dump taken
     here either, the file alone cannot rebuild the database. *)
  let journal_path = "/site/sms/journal" in
  Relation.Journal.on_append (Moira.Mdb.journal mdb) (fun e ->
      let fs = Netsim.Host.fs moira_host in
      let existing =
        Option.value (Netsim.Vfs.read fs ~path:journal_path) ~default:""
      in
      Netsim.Vfs.write fs ~path:journal_path
        (existing ^ Relation.Journal.encode_entry e ^ "\n");
      Netsim.Vfs.flush fs);

  (* registration server on the database machine *)
  let userreg = Userreg.start ~glue ~kdc moira_host in

  (* replicated read path: the primary serves its journal as a stream,
     each replica host runs a read-only server fed by it *)
  let repl_primary =
    if replicas = 0 then None
    else
      Some
        (Moira.Mr_server.serve_replication ?retain:repl_retain server ~net
           ~host:moira_host)
  in
  let replica_servers =
    List.init replicas (fun i ->
        let machine = replica_machine i in
        let host = Netsim.Net.add_host net machine in
        let r =
          Moira.Mr_server.create_replica ?backend ~poll_ms:repl_poll_ms ~net
            ~host ~primary:built.Population.moira_machine ~kdc
            ~trace_obs:(lane machine) ()
        in
        (machine, r))
  in

  (* default propagation SLOs over the freshness telemetry; the DCM
     ticks the windows and routes breaches through its notifier *)
  Obs.Slo.reset Obs.Slo.default;
  List.iter
    (Obs.Slo.add Obs.Slo.default)
    [
      {
        Obs.Slo.o_name = "serving-freshness-p99";
        o_metric = "prop.commit_to_serving_ms";
        o_stat = Obs.Slo.P99;
        o_op = Obs.Slo.Le;
        o_threshold = 26 * 3600 * 1000;
        (* the section 5.7 bound: a commit is serving within its file's
           update interval (the slowest service regenerates every 24
           hours) plus distribution slack *)
        o_window_ms = 48 * 3600 * 1000;
      };
      {
        Obs.Slo.o_name = "host-staleness";
        o_metric = "prop.host.*.staleness_s";
        o_stat = Obs.Slo.Value;
        o_op = Obs.Slo.Le;
        o_threshold = 48 * 3600;  (* the paper's ~daily cycle, doubled *)
        o_window_ms = 0;
      };
      {
        Obs.Slo.o_name = "client-query-p99";
        o_metric = "client.query_ms";
        o_stat = Obs.Slo.P99;
        o_op = Obs.Slo.Le;
        o_threshold = 30 * 1000;  (* one transport timeout *)
        o_window_ms = 24 * 3600 * 1000;
      };
    ];
  (* only graded when there is a replication stream to be behind *)
  if replicas > 0 then
    Obs.Slo.add Obs.Slo.default
      {
        Obs.Slo.o_name = "replica-freshness-p99";
        o_metric = "prop.commit_to_replica_ms";
        o_stat = Obs.Slo.P99;
        o_op = Obs.Slo.Le;
        o_threshold = 60 * 1000;  (* a minute behind the primary *)
        o_window_ms = 24 * 3600 * 1000;
      };

  let dcm =
    Dcm.Manager.create ~net ~moira_host:built.Population.moira_machine ~glue
      ~zephyr_to:built.Population.zephyr_machines.(0)
      ~mail_via:(built.Population.mail_hub, "moira-admins")
      ?retry ~slo:Obs.Slo.default ()
  in
  dcm_ref := Some dcm;
  ignore (Dcm.Manager.schedule dcm engine ~every_min:dcm_every_min);

  (* opt-in lock-discipline sanitizer: monitor the lock manager and
     guard every managed host's durable directories *)
  let sanitizer =
    if not sanitize then None
    else begin
      let san =
        Dcm.Sanitizer.install ~obs:Obs.default (Moira.Mdb.locks mdb)
      in
      let dirs = [ hesiod_dir; zephyr_acl_dir; nfs_dir; mail_dir ] in
      let guard machine =
        Dcm.Sanitizer.guard_host san ~machine ~dirs
          (Netsim.Host.fs (Netsim.Net.host net machine))
      in
      List.iter guard
        (List.map fst hesiods
        @ Array.to_list built.Population.nfs_machines
        @ [ built.Population.mail_hub ]
        @ List.map fst zephyrs);
      Some san
    end
  in
  {
    engine; net; kdc; mdb; server; glue; dcm; built; hesiods; zephyrs;
    pops; mailhub; userreg; sanitizer; repl_primary;
    replicas = replica_servers;
    lanes =
      (built.Population.moira_machine, Obs.default) :: List.rev !lanes;
  }

let replica_machines t = List.map fst t.replicas

let client t ~src = Moira.Mr_client.create t.net ~src

let connect_and_auth t ~src ~login ~password =
  let c = client t ~src in
  let code = Moira.Mr_client.mr_connect c ~dst:t.built.Population.moira_machine in
  if code <> 0 then
    failwith ("testbed: connect failed: " ^ Comerr.Com_err.error_message code);
  let code =
    Moira.Mr_client.mr_auth c ~kdc:t.kdc ~principal:login ~password
      ~clientname:"testbed"
  in
  if code <> 0 then
    failwith ("testbed: auth failed: " ^ Comerr.Com_err.error_message code);
  c

let admin_client t ~src =
  connect_and_auth t ~src ~login:t.built.Population.admin
    ~password:t.built.Population.admin_password

let user_client t ~src ~login =
  connect_and_auth t ~src ~login ~password:(t.built.Population.passwords login)

let run_minutes t m = Sim.Engine.run_for t.engine (m * 60 * 1000)
let run_hours t h = run_minutes t (h * 60)
let host t name = Netsim.Net.host t.net name

let first_hesiod t =
  match t.hesiods with
  | h :: _ -> h
  | [] -> failwith "testbed: no hesiod servers"

let send_mail t ~src ~sender ~rcpt ~body =
  Pop.Mailhub.send t.net ~src ~hub:t.built.Population.mail_hub ~sender ~rcpt
    ~body

let read_mail t ~ws ~login =
  let hes_machine, _ = first_hesiod t in
  match
    Hesiod.Hes_server.resolve t.net ~src:ws ~server:hes_machine ~name:login
      ~ty:"pobox"
  with
  | Ok (entry :: _) -> (
      (* "POP ATHENA-PO-2.MIT.EDU login" *)
      match
        String.split_on_char ' ' entry |> List.filter (fun s -> s <> "")
      with
      | [ "POP"; machine; _ ] ->
          Pop.Pop_server.retrieve t.net ~src:ws ~server:machine ~user:login
      | _ -> Ok [])
  | Ok [] -> Ok []
  | Error f -> Error f

let managed_machines t =
  Array.to_list t.built.Population.hesiod_machines
  @ Array.to_list t.built.Population.nfs_machines
  @ [ t.built.Population.mail_hub ]
  @ Array.to_list t.built.Population.zephyr_machines

let durable_files t machine =
  let fs = Netsim.Host.fs (host t machine) in
  Netsim.Vfs.list fs
  |> List.filter (fun p ->
         (not (String.starts_with ~prefix:"/tmp/" p))
         && (not (Filename.check_suffix p ".moira_update"))
         && not (Filename.check_suffix p ".moira_old"))
  |> List.sort compare
  |> List.map (fun p ->
         (p, Option.value (Netsim.Vfs.read fs ~path:p) ~default:""))

let installed_state t =
  List.map (fun m -> (m, durable_files t m)) (managed_machines t)

let journal_file t =
  let fs = Netsim.Host.fs (host t t.built.Population.moira_machine) in
  Option.map Relation.Journal.of_lines
    (Netsim.Vfs.read fs ~path:"/site/sms/journal")
