(* Schema–query cross-checker.

   The paper's section 7 invariant is that every database access goes
   through a predefined query handle whose declared signature (inputs,
   outputs, short name, access list) is the whole truth about it.  That
   only holds if the declarations actually agree with [Schema_def] and
   with what the handlers do — which nothing verified until now.  This
   module walks the registry and reports every disagreement as a
   [finding]; an empty list is the invariant holding.

   Three layers of checking:
   - static: name/short lexical shape, registry-wide uniqueness (names
     and shorts share one namespace in [Query.make_registry]), and the
     kind/outputs contract (retrieves produce tuples, mutations none);
   - dynamic: run every retrieve handler once against a privileged
     context with ["*"] for each declared input, and require that it
     neither raises (a misspelled column in a projector raises
     [Not_found] from [Schema.index_of]) nor returns tuples whose width
     differs from the declared outputs;
   - referential: every [capacls] capability row must name a registered
     query, and [Schema_def.indexed_columns] must only name real
     columns.

   DCM generator watch-lists are validated with {!watch_ref}; the
   dcm-side walk lives in [Dcm.Manager.check_generators] because this
   library sits below [lib/dcm]. *)

open Relation

type finding = { c_rule : string; c_subject : string; c_detail : string }

let f rule subject detail =
  { c_rule = rule; c_subject = subject; c_detail = detail }

let pp { c_rule; c_subject; c_detail } =
  Printf.sprintf "%s: %s: %s" c_rule c_subject c_detail

let to_rows fs =
  List.map (fun x -> [ x.c_rule; x.c_subject; x.c_detail ]) fs

(* ---------------- lexical shape ---------------- *)

let name_shape s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       s

let static_queries qs =
  let out = ref [] in
  let add x = out := x :: !out in
  let seen = Hashtbl.create 256 in
  let claim ~what q key =
    match Hashtbl.find_opt seen key with
    | Some prior ->
        add
          (f "dup-name" q.Query.name
             (Printf.sprintf "%s %S already used by %s" what key prior))
    | None -> Hashtbl.replace seen key q.Query.name
  in
  List.iter
    (fun q ->
      let subj = q.Query.name in
      if not (name_shape q.Query.name) then
        add (f "name-shape" subj "query name is not lowercase [a-z0-9_]+");
      if String.length q.Query.short <> 4 then
        add
          (f "short-shape" subj
             (Printf.sprintf "short name %S is not 4 characters"
                q.Query.short))
      else if not (name_shape q.Query.short) then
        add
          (f "short-shape" subj
             (Printf.sprintf "short name %S is not lowercase [a-z0-9_]+"
                q.Query.short));
      claim ~what:"name" q q.Query.name;
      claim ~what:"short" q q.Query.short;
      (match q.Query.kind with
      | Query.Retrieve ->
          if q.Query.outputs = [] then
            add (f "kind-outputs" subj "retrieve declares no outputs")
      | Query.Append | Query.Update | Query.Delete ->
          if q.Query.outputs <> [] then
            add
              (f "kind-outputs" subj
                 "mutation declares outputs (mutations return no tuples)"));
      List.iter
        (fun field ->
          if field = "" then
            add (f "field-name" subj "empty input/output field name"))
        (q.Query.inputs @ q.Query.outputs))
    qs;
  List.rev !out

(* ---------------- dynamic probe ---------------- *)

(* Run each retrieve once with a wildcard for every declared input.
   Mutations are never probed (the probe must not change the database);
   their column references are covered by the moira-lint schema-ref
   rule.  Queries named [_check*] are skipped so the integrity query can
   probe the registry it belongs to without recursing. *)
let probe_queries mdb qs =
  let ctx =
    { Query.mdb; caller = ""; client = "check"; privileged = true; trace = "" }
  in
  List.concat_map
    (fun q ->
      let subj = q.Query.name in
      let skip =
        q.Query.kind <> Query.Retrieve
        || String.length subj >= 6 && String.sub subj 0 6 = "_check"
      in
      if skip then []
      else
        let args = List.map (fun _ -> "*") q.Query.inputs in
        match q.Query.handler ctx args with
        | Ok tuples ->
            let want = List.length q.Query.outputs in
            List.filter_map
              (fun tuple ->
                let got = List.length tuple in
                if got <> want then
                  Some
                    (f "output-arity" subj
                       (Printf.sprintf
                          "handler produced a %d-column tuple; %d outputs \
                           declared"
                          got want))
                else None)
              tuples
            |> fun dups ->
            (* one finding per query, not per row *)
            (match dups with [] -> [] | d :: _ -> [ d ])
        | Error _ -> []
        | exception exn ->
            [
              f "probe-raise" subj
                (Printf.sprintf "handler raised %s on wildcard probe"
                   (Printexc.to_string exn));
            ])
    qs

(* ---------------- referential checks ---------------- *)

let capacls mdb qs =
  let names = List.map (fun q -> q.Query.name) qs in
  Plan.select (Mdb.table mdb "capacls") Pred.True
  |> List.filter_map (fun (_, row) ->
         let cap = Value.to_string row.(0) in
         if List.mem cap names then None
         else
           Some
             (f "capacl-query" cap
                "capacls row names a query that is not registered"))

let schema_self () =
  let out = ref [] in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun schema ->
      let name = Schema.name schema in
      if Hashtbl.mem seen name then
        out := f "dup-table" name "duplicate table name" :: !out;
      Hashtbl.replace seen name ();
      List.iter
        (fun c ->
          if not (Schema.mem schema c) then
            out :=
              f "index-column" name
                (Printf.sprintf "indexed_columns names unknown column %S" c)
              :: !out)
        (Schema_def.indexed_columns name))
    Schema_def.all;
  List.rev !out

(* ---------------- generator watch references ---------------- *)

let schema_of table =
  List.find_opt (fun s -> Schema.name s = table) Schema_def.all

let watch_ref ~subject ~table ~columns =
  match schema_of table with
  | None ->
      [
        f "watch-table" subject
          (Printf.sprintf "watches unknown table %S" table);
      ]
  | Some schema ->
      List.filter_map
        (fun c ->
          if not (Schema.mem schema c) then
            Some
              (f "watch-column" subject
                 (Printf.sprintf "watches unknown column %S of %S" c table))
          else
            let cols = Schema.columns schema in
            let col = cols.(Schema.index_of schema c) in
            if col.Schema.ctype <> Value.TInt then
              Some
                (f "watch-column" subject
                   (Printf.sprintf
                      "watched column %S of %S is not an int (watches scan \
                       modtimes)"
                      c table))
            else None)
        columns

(* ---------------- the full walk ---------------- *)

let queries mdb qs =
  schema_self () @ static_queries qs @ probe_queries mdb qs @ capacls mdb qs

let registry mdb r = queries mdb (Query.all r)
