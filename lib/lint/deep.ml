(* moira_lint's analyzer: one pass over the compiler's typed ASTs.

   The paper's bet (section 7) is that all database access goes through
   predefined query handles and all fleet mutation through the DCM's
   lock-guarded update protocol, which makes the whole surface
   statically checkable.  This module loads the [.cmt] files dune
   leaves next to the objects ([Cmt_format]), walks them with
   [Tast_iterator], and reduces every compilation unit to a table of
   per-definition facts: which names it references, which string
   constants it mentions, which effects it performs directly, which
   lock classes it acquires, and which per-site rules it breaks.
   Everything else — effect propagation along the call graph, the
   static lock-order graph, the protocol exhaustiveness checks — is
   plain graph algebra over those facts, shared between the real tree
   ([Deep_moira]) and the test fixtures.

   Rules (ids as reported; the catalogue and per-file scoping live in
   [Allow]):
   - whole-program, reported once per direct site with the shortest
     call chain from an entry point:
     [wall-clock]     [Unix.gettimeofday]/[Unix.time]/[Sys.time] and Gc
                      measurement reads: sim code reads the injected
                      engine clock, or same-seed runs stop being
                      byte-identical;
     [global-random]  the global [Random] (all randomness goes through
                      the seeded [Sim.Rng]);
     [unsorted-fold]  a [Hashtbl.fold]/[iter] accumulating
                      order-sensitively (list cons, string or buffer
                      append, an opaque function) with no sort in the
                      definition or one call away;
   - per definition: [obj-magic], [swallow-exn] ([try ... with _ ->] or
     [with _e ->]), [lock-protect] (a definition calling [Lock.acquire]
     must use [Fun.protect]), [schema-ref] (string literals in
     table/column positions of known calls must name a real
     [Schema_def] table or column), [printf-in-lib] (stdout printers);
   - [lock-order] (an acquisition-order cycle or an acquire whose key
     the analysis cannot classify), [proto-exhaustive] (an opcode, verb
     or error code without both endpoints of a dispatch or its
     PROTOCOL.md row).

   Every finding then goes through {!gate}: the rule's file scope, and
   an allow comment — open-comment immediately followed by
   [lint: allow <rule> -- <reason>] (em dash or [--] before the reason)
   — on the offending line, or alone on the line directly above.
   Malformed and unused allows are findings themselves. *)

type effect_ =
  | WallClock
  | GlobalRandom
  | UnorderedIter
  | TakesLock of string

let effect_name = function
  | WallClock -> "wall-clock"
  | GlobalRandom -> "global-random"
  | UnorderedIter -> "unsorted-fold"
  | TakesLock c -> "takes-lock:" ^ c

type fn = {
  fn_name : string;  (* fully qualified: "Dcm.Manager.host_phase" *)
  fn_unit : string;  (* enclosing unit, normalized: "Dcm.Manager" *)
  fn_file : string;
  fn_line : int;
  mutable fn_refs : (string * int) list;  (* referenced value, line *)
  mutable fn_strings : (string * int) list;  (* string constant, line *)
  mutable fn_direct : (effect_ * int) list;  (* direct effect, line *)
  mutable fn_acquires : (string * int) list;  (* lock class or "?", line *)
  mutable fn_code_idx : int option;  (* body is [code <int>] *)
  mutable fn_sites : (string * int * string) list;  (* rule, line, msg *)
}

type facts = (string, fn) Hashtbl.t

let create () : facts = Hashtbl.create 256

let add_fn (facts : facts) fn = Hashtbl.replace facts fn.fn_name fn

let make_fn ~name ~unit_name ~file ~line =
  {
    fn_name = name;
    fn_unit = unit_name;
    fn_file = file;
    fn_line = line;
    fn_refs = [];
    fn_strings = [];
    fn_direct = [];
    fn_acquires = [];
    fn_code_idx = None;
    fn_sites = [];
  }

(* ---------------- name normalization ---------------- *)

let find_sub = Allow.find_sub

let replace_sub s ~sub ~by =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let rec go i =
    match find_sub ~start:i s sub with
    | None -> Buffer.add_substring b s i (String.length s - i)
    | Some j ->
        Buffer.add_substring b s i (j - i);
        Buffer.add_string b by;
        go (j + n)
  in
  go 0;
  Buffer.contents b

let strip_prefix p s =
  if String.starts_with ~prefix:p s then
    String.sub s (String.length p) (String.length s - String.length p)
  else s

(* "Dune__exe__Moira_cli" -> "Moira_cli"; "Dcm__Manager" -> "Dcm.Manager" *)
let norm_unit modname =
  replace_sub (strip_prefix "Dune__exe__" modname) ~sub:"__" ~by:"."

(* A referenced path as the analysis names things: the [Stdlib] prefix
   dropped, dune's unit mangling undone.  Inside a wrapped library with
   a main module, siblings are reached through the alias module
   ([Lint__.Deep.create]); inside an executable, through [Dune__exe]
   ([Dune__exe.Fix.create]). *)
let norm_path name =
  let name = strip_prefix "Stdlib." name in
  let name = strip_prefix "Dune__exe." (strip_prefix "Dune__exe__" name) in
  replace_sub (replace_sub name ~sub:"__." ~by:".") ~sub:"__" ~by:"."

let last_component n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

(* [n] names [suffix] or a value reached through it ("Relation.Pred.eq_str"
   for "Pred.eq_str"). *)
let path_is n suffix = n = suffix || String.ends_with ~suffix:("." ^ suffix) n

let lowercase_contains hay needle =
  match find_sub ~start:0 (String.lowercase_ascii hay) needle with
  | Some _ -> true
  | None -> false

(* ---------------- direct-effect classification ---------------- *)

let wall_clock_names =
  [
    "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Gc.quick_stat"; "Gc.stat";
    "Gc.counters"; "Gc.allocated_bytes";
  ]

let classify_ref n =
  if List.mem n wall_clock_names then Some WallClock
  else if String.starts_with ~prefix:"Random." n then Some GlobalRandom
  else None

(* stdout-only printers; stderr ([prerr_*], [Printf.eprintf]) is left to
   com_err's reporting convention. *)
let stdout_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "Printf.printf";
    "Format.printf";
  ]

let is_hashtbl_walk n = n = "Hashtbl.fold" || n = "Hashtbl.iter"

(* Lock keys are "<class>:<instance>"; ordering discipline is per class. *)
let key_class key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

(* ---------------- schema knowledge ---------------- *)

let table_names = List.map Relation.Schema.name Moira.Schema_def.all

let column_names =
  List.concat_map
    (fun s ->
      Array.to_list (Relation.Schema.columns s)
      |> List.map (fun c -> c.Relation.Schema.cname))
    Moira.Schema_def.all
  |> List.sort_uniq String.compare

(* Table positions: every unlabelled string literal names a table. *)
let table_fns = [ "Mdb.table"; "Db.table" ]

(* Column positions.  The first group also takes a string *value*, so
   the column is strictly the first unlabelled argument (skipped when
   it is computed rather than a literal); in the second no other
   argument can be a string, so any unlabelled literal is a column. *)
let column_fns_first = [ "Pred.eq_str"; "Pred.name_match" ]

let column_fns_any =
  [ "Pred.eq_int"; "Pred.eq_bool"; "Table.field"; "Schema.index_of"; "seti";
    "setb" ]

(* ---------------- the typedtree walk ---------------- *)

open Typedtree

let line_of (e : expression) = e.exp_loc.Location.loc_start.Lexing.pos_lnum

let string_const e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | _ -> None

(* String constants in a subtree, in syntactic order, with their lines.
   Format literals decompose into CamlinternalFormat constants, but the
   leading literal chunk ("host:" of "host:%s/%s") still shows up as a
   plain string constant, which is all the key classifier needs. *)
let strings_in e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match string_const e with
          | Some s -> acc := (s, line_of e) :: !acc
          | None -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !acc

let first_string_in e =
  match strings_in e with (s, _) :: _ -> Some s | [] -> None

(* Does a lambda body accumulate order-sensitively (list cons, string
   append, buffer append)?  Iterating a hashtable with such a lambda
   and no sort in the same definition leaks hash order. *)
let order_sensitive_lambda e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _) when cd.Types.cstr_name = "::" ->
              found := true
          | Texp_ident (p, _, _) -> (
              match norm_path (Path.name p) with
              | "^" | "Buffer.add_string" | "Buffer.add_char" -> found := true
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* [with _ ->] and [with _e ->]: the handler declares it will not look
   at the exception. *)
let rec swallows (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var (id, _) -> String.starts_with ~prefix:"_" (Ident.name id)
  | Tpat_alias (p, _, _) -> swallows p
  | Tpat_or (a, b, _) -> swallows a || swallows b
  | _ -> false

(* [schema-ref] at one application of [n] to [args]. *)
let schema_sites n args =
  let unlabelled =
    List.filter_map
      (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let literal a =
    match string_const a with Some s -> [ (s, line_of a) ] | None -> []
  in
  let check what known lits =
    List.filter_map
      (fun (s, ln) ->
        if known s then None
        else Some ("schema-ref", ln, Printf.sprintf "unknown %s %S" what s))
      lits
  in
  let table = check "table" (fun t -> List.mem t table_names) in
  let column = check "column" (fun c -> List.mem c column_names) in
  let is = List.exists (path_is n) in
  if is table_fns then table (List.concat_map literal unlabelled)
  else if path_is n "Gen.watch" then
    table (List.concat_map literal unlabelled)
    @ column
        (List.concat_map
           (function
             | (Asttypes.Labelled "columns" | Optional "columns"), Some a ->
                 strings_in a
             | _ -> [])
           args)
  else if is column_fns_first then
    match unlabelled with a :: _ -> column (literal a) | [] -> []
  else if is column_fns_any then column (List.concat_map literal unlabelled)
  else []

(* Walk one toplevel binding's body, filling [fn]'s fact lists. *)
let walk_binding fn body =
  (* local [let k = "service:" ^ x] string bindings, for key classing *)
  let locals : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let walk_candidates = ref [] in
  let site rule ln msg = fn.fn_sites <- (rule, ln, msg) :: fn.fn_sites in
  let it =
    {
      Tast_iterator.default_iterator with
      (* string constants in match arms count as uses too: a protocol
         verb's handler arm is a pattern, not an expression *)
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_constant (Asttypes.Const_string (s, _, _)) ->
              fn.fn_strings <-
                (s, p.pat_loc.Location.loc_start.Lexing.pos_lnum)
                :: fn.fn_strings
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          let ln = line_of e in
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              let n = norm_path (Path.name p) in
              fn.fn_refs <- (n, ln) :: fn.fn_refs;
              (match classify_ref n with
              | Some eff -> fn.fn_direct <- (eff, ln) :: fn.fn_direct
              | None -> ());
              if path_is n "Obj.magic" then
                site "obj-magic" ln "Obj.magic defeats the type system";
              if List.mem n stdout_printers then
                site "printf-in-lib" ln
                  "stdout print inside lib/; route through an Obs log channel"
          | Texp_constant (Asttypes.Const_string (s, _, _)) ->
              fn.fn_strings <- (s, ln) :: fn.fn_strings
          | Texp_try (_, cases) ->
              List.iter
                (fun c ->
                  if swallows c.c_lhs then
                    site "swallow-exn"
                      c.c_lhs.pat_loc.Location.loc_start.Lexing.pos_lnum
                      "wildcard handler discards the exception; match the \
                       exceptions you mean to handle")
                cases
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> (
                      match first_string_in vb.vb_expr with
                      | Some s -> Hashtbl.replace locals (Ident.name id) s
                      | None -> ())
                  | _ -> ())
                vbs
          | Texp_apply (f, args) -> (
              match f.exp_desc with
              | Texp_ident (p, _, _) -> (
                  let n = norm_path (Path.name p) in
                  List.iter
                    (fun (rule, ln, msg) -> site rule ln msg)
                    (schema_sites n args);
                  if path_is n "Lock.acquire" then begin
                    let key =
                      List.find_map
                        (function
                          | Asttypes.Labelled "key", Some a -> (
                              match first_string_in a with
                              | Some s -> Some s
                              | None -> (
                                  match a.exp_desc with
                                  | Texp_ident (pv, _, _) ->
                                      Hashtbl.find_opt locals (Path.last pv)
                                  | _ -> None))
                          | _ -> None)
                        args
                    in
                    let cls =
                      match key with Some s -> key_class s | None -> "?"
                    in
                    fn.fn_acquires <- (cls, ln) :: fn.fn_acquires
                  end;
                  if is_hashtbl_walk n then
                    match
                      List.find_map
                        (function
                          | Asttypes.Nolabel, Some a -> Some a | _ -> None)
                        args
                    with
                    | Some a ->
                        let sensitive =
                          match a.exp_desc with
                          | Texp_function _ -> order_sensitive_lambda a
                          (* opaque function value: conservatively
                             order-sensitive (a wrapper like
                             [let each h f = Hashtbl.iter f h]) *)
                          | _ -> true
                        in
                        if sensitive then
                          walk_candidates := ln :: !walk_candidates
                    | None -> ())
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  (* [let some_err = code 7]-style constant bindings *)
  (match body.exp_desc with
  | Texp_apply (f, [ (_, Some a) ]) -> (
      match (f.exp_desc, a.exp_desc) with
      | Texp_ident (p, _, _), Texp_constant (Asttypes.Const_int i)
        when last_component (norm_path (Path.name p)) = "code" ->
          fn.fn_code_idx <- Some i
      | _ -> ())
  | _ -> ());
  (* an unsorted walk is only a hazard if nothing in the definition
     sorts the result before it escapes *)
  if
    !walk_candidates <> []
    && not
         (List.exists
            (fun (r, _) -> lowercase_contains (last_component r) "sort")
            fn.fn_refs)
  then
    List.iter
      (fun ln -> fn.fn_direct <- (UnorderedIter, ln) :: fn.fn_direct)
      !walk_candidates;
  (* the release lives in [Fun.protect ~finally], so no exception path
     leaks the lock *)
  if not (List.exists (fun (r, _) -> r = "Fun.protect") fn.fn_refs) then
    List.iter
      (fun (_, ln) ->
        site "lock-protect" ln
          "Lock.acquire without Fun.protect: an exception path can leak \
           the lock")
      fn.fn_acquires;
  fn.fn_refs <- List.rev fn.fn_refs;
  fn.fn_strings <- List.rev fn.fn_strings;
  fn.fn_direct <- List.rev fn.fn_direct;
  fn.fn_acquires <- List.rev fn.fn_acquires;
  fn.fn_sites <- List.rev fn.fn_sites

let collect_binding facts ~unit_name ~file ~prefix ~line ~base body =
  let fn = make_fn ~name:(prefix ^ "." ^ base) ~unit_name ~file ~line in
  walk_binding fn body;
  add_fn facts fn

let entry_name line = "<entry:" ^ string_of_int line ^ ">"

let rec load_items facts ~unit_name ~file ~prefix items =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum in
              let base =
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) -> Ident.name id
                | _ -> entry_name line
              in
              collect_binding facts ~unit_name ~file ~prefix ~line ~base
                vb.vb_expr)
            vbs
      | Tstr_eval (e, _) ->
          let line = line_of e in
          collect_binding facts ~unit_name ~file ~prefix ~line
            ~base:(entry_name line) e
      | Tstr_module mb -> load_module facts ~unit_name ~file ~prefix mb
      | Tstr_recmodule mbs ->
          List.iter (load_module facts ~unit_name ~file ~prefix) mbs
      | _ -> ())
    items

and load_module facts ~unit_name ~file ~prefix mb =
  let name =
    match mb.mb_id with Some id -> Ident.name id | None -> "_"
  in
  let rec strip (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> Some s
    | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> strip me
    | _ -> None
  in
  match strip mb.mb_expr with
  | Some s ->
      load_items facts ~unit_name ~file ~prefix:(prefix ^ "." ^ name)
        s.str_items
  | None -> ()

let load_structure facts ~unit_name ~file str =
  load_items facts ~unit_name ~file ~prefix:unit_name str.str_items

let load_cmt facts path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      let unit_name = norm_unit cmt.Cmt_format.cmt_modname in
      let file =
        Option.value cmt.Cmt_format.cmt_sourcefile ~default:unit_name
      in
      load_structure facts ~unit_name ~file str
  | _ -> ()

(* The definitions [keep] selects, as their own fact table. *)
let restrict (facts : facts) keep : facts =
  let sub = create () in
  Hashtbl.iter (fun _ fn -> if keep fn then add_fn sub fn) facts;
  sub

(* ---------------- call-graph plumbing ---------------- *)

(* Same-unit references come out of the typedtree bare ("helper") or
   partially qualified ("Lock.acquire" inside a fixture that defines its
   own [Lock]); cross-unit ones are already in public wrapper form
   ("Dcm.Update.push"). *)
let resolve (facts : facts) fn r =
  if Hashtbl.mem facts r then Some r
  else
    let q = fn.fn_unit ^ "." ^ r in
    if Hashtbl.mem facts q then Some q else None

let callees facts fn =
  List.filter_map (fun (r, _) -> resolve facts fn r) fn.fn_refs
  |> List.sort_uniq compare
  |> List.filter (fun g -> g <> fn.fn_name)

let sorted_fns (facts : facts) =
  Hashtbl.fold (fun _ fn acc -> fn :: acc) facts []
  |> List.sort (fun a b -> compare a.fn_name b.fn_name)

(* Names of every fact referencing [name] (unresolved match: callers of
   a protocol constant reference it by its public name). *)
let refs_to (facts : facts) name =
  List.filter_map
    (fun fn ->
      if fn.fn_name <> name
         && List.exists (fun (r, _) -> resolve facts fn r = Some name)
              fn.fn_refs
      then Some fn.fn_name
      else None)
    (sorted_fns facts)

(* A walk whose result pipes into a sorting helper defined in the same
   tree ([by_name] in obs.ml) is ordered even though the sort is one
   call away.  The load-time heuristic only sees refs inside the one
   binding; once the graph exists, discharge those sites.  Idempotent. *)
let discharge_sorted_walks (facts : facts) =
  Hashtbl.iter
    (fun _ fn ->
      if
        List.exists (fun (e, _) -> e = UnorderedIter) fn.fn_direct
        && List.exists
             (fun g ->
               match Hashtbl.find_opt facts g with
               | Some callee ->
                   List.exists
                     (fun (r, _) ->
                       lowercase_contains (last_component r) "sort")
                     callee.fn_refs
               | None -> false)
             (callees facts fn)
      then
        fn.fn_direct <-
          List.filter (fun (e, _) -> e <> UnorderedIter) fn.fn_direct)
    facts

(* Transitive effect sets by fixpoint over the call graph (cycles are
   fine: iterate until stable). *)
let compute_effects (facts : facts) =
  discharge_sorted_walks facts;
  let eff : (string, effect_ list) Hashtbl.t =
    Hashtbl.create (Hashtbl.length facts)
  in
  Hashtbl.iter
    (fun n fn ->
      let own =
        List.map (fun (e, _) -> e) fn.fn_direct
        @ List.map (fun (c, _) -> TakesLock c) fn.fn_acquires
      in
      Hashtbl.replace eff n (List.sort_uniq compare own))
    facts;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun n fn ->
        let cur = Hashtbl.find eff n in
        let merged =
          List.sort_uniq compare
            (cur
            @ List.concat_map
                (fun g -> try Hashtbl.find eff g with Not_found -> [])
                (callees facts fn))
        in
        if merged <> cur then begin
          Hashtbl.replace eff n merged;
          changed := true
        end)
      facts
  done;
  eff

let transitive facts name =
  let eff = compute_effects facts in
  match Hashtbl.find_opt eff name with Some l -> l | None -> []

(* The reverse call graph: each definition's callers, in name order. *)
let callers (facts : facts) =
  let tbl = Hashtbl.create (Hashtbl.length facts) in
  List.iter
    (fun fn ->
      List.iter
        (fun g ->
          Hashtbl.replace tbl g
            (fn.fn_name :: Option.value (Hashtbl.find_opt tbl g) ~default:[]))
        (callees facts fn))
    (List.rev (sorted_fns facts));
  fun n -> Option.value (Hashtbl.find_opt tbl n) ~default:[]

let entry_points (facts : facts) =
  let callers_of = callers facts in
  List.filter_map
    (fun fn -> if callers_of fn.fn_name = [] then Some fn.fn_name else None)
    (sorted_fns facts)

(* Shortest call chain [entry; ...; dst] from any entry point, by a
   backward BFS over [callers_of]; deterministic because caller lists
   are sorted.  A definition only reachable from a caller-less cycle
   gets the one-element chain [[dst]]. *)
let chain_to callers_of dst =
  let next = Hashtbl.create 64 in
  Hashtbl.replace next dst "";
  let q = Queue.create () in
  Queue.push dst q;
  let rec bfs () =
    if Queue.is_empty q then None
    else
      let n = Queue.pop q in
      match callers_of n with
      | [] -> Some n
      | cs ->
          List.iter
            (fun c ->
              if not (Hashtbl.mem next c) then begin
                Hashtbl.replace next c n;
                Queue.push c q
              end)
            cs;
          bfs ()
  in
  match bfs () with
  | None -> [ dst ]
  | Some entry ->
      let rec forward n =
        match Hashtbl.find next n with "" -> [ n ] | m -> n :: forward m
      in
      forward entry

(* ---------------- findings ---------------- *)

type finding = {
  f_rule : string;
  f_file : string;
  f_line : int;
  f_msg : string;
  f_chain : string list;
}

let pp_finding f =
  let chain =
    match f.f_chain with
    | [] | [ _ ] -> ""
    | c -> "\n    via " ^ String.concat " -> " c
  in
  Printf.sprintf "%s:%d: %s: %s%s" f.f_file f.f_line f.f_rule f.f_msg chain

let sort_findings fs =
  List.sort_uniq compare fs
  |> List.sort (fun a b ->
         compare (a.f_file, a.f_line, a.f_rule, a.f_msg)
           (b.f_file, b.f_line, b.f_rule, b.f_msg))

(* The per-definition rules, at their sites. *)
let site_findings (facts : facts) =
  List.concat_map
    (fun fn ->
      List.map
        (fun (rule, line, msg) ->
          { f_rule = rule; f_file = fn.fn_file; f_line = line; f_msg = msg;
            f_chain = [] })
        fn.fn_sites)
    (sorted_fns facts)
  |> sort_findings

let effect_what = function
  | WallClock -> "wall-clock read; sim code must use the engine clock"
  | GlobalRandom -> "global Random; use the seeded Sim.Rng"
  | UnorderedIter ->
      "hashtable iteration order reaches the result; sort before it escapes"
  | TakesLock _ -> "lock acquire"

(* [wall-clock], [global-random], [unsorted-fold]: each direct site
   once, with the shortest chain from an entry point that reaches it.
   Suppression is judged at the site (fix or allow the source, and every
   path through it clears). *)
let effect_findings (facts : facts) =
  discharge_sorted_walks facts;
  let callers_of = callers facts in
  List.concat_map
    (fun fn ->
      let sites =
        List.filter
          (fun (e, _) -> match e with TakesLock _ -> false | _ -> true)
          fn.fn_direct
        |> List.sort_uniq compare
      in
      if sites = [] then []
      else
        let chain = chain_to callers_of fn.fn_name in
        List.map
          (fun (e, line) ->
            {
              f_rule = effect_name e;
              f_file = fn.fn_file;
              f_line = line;
              f_msg =
                Printf.sprintf "%s (in %s, reached from %s)" (effect_what e)
                  fn.fn_name (List.hd chain);
              f_chain = chain;
            })
          sites)
    (sorted_fns facts)
  |> sort_findings

(* The last step for every finding: drop those their file's scope
   exempts ({!Allow.applies}) or a [lint: allow] covers, then add the
   malformed and unused allows of [sources], the [(file, text)] of every
   analyzed file. *)
let gate ~sources findings =
  let t = Allow.track sources in
  let kept =
    List.filter
      (fun f ->
        Allow.applies ~file:f.f_file f.f_rule
        && not
             (Allow.suppressed t ~rule:f.f_rule ~file:f.f_file
                ~line:f.f_line))
      findings
  in
  sort_findings
    (kept
    @ List.map
        (fun (file, line, rule, msg) ->
          { f_rule = rule; f_file = file; f_line = line; f_msg = msg;
            f_chain = [] })
        (Allow.hygiene t))

(* ---------------- static lock-order graph ---------------- *)

type lock_edge = {
  le_from : string;
  le_to : string;
  le_why : string;
  le_file : string;
  le_line : int;
}

(* Over-approximate: within one definition, any later acquire (or any
   later call whose callee graph acquires) is treated as nested inside
   every earlier one.  Same-class pairs are skipped — instances of one
   class are taken sequentially, never nested (the runtime sanitizer's
   double-acquire check enforces that side). *)
let lock_edges (facts : facts) =
  let eff = compute_effects facts in
  let lock_classes_of g =
    List.filter_map
      (function TakesLock c -> Some c | _ -> None)
      (match Hashtbl.find_opt eff g with Some l -> l | None -> [])
  in
  let edges = ref [] in
  let add e =
    if
      not
        (List.exists
           (fun e' -> e'.le_from = e.le_from && e'.le_to = e.le_to)
           !edges)
    then edges := e :: !edges
  in
  List.iter
    (fun fn ->
      List.iter
        (fun (c1, l1) ->
          (* later direct acquires in the same definition *)
          List.iter
            (fun (c2, l2) ->
              if l2 > l1 && c1 <> c2 then
                add
                  {
                    le_from = c1;
                    le_to = c2;
                    le_why =
                      Printf.sprintf "%s acquires %s then %s" fn.fn_name c1
                        c2;
                    le_file = fn.fn_file;
                    le_line = l2;
                  })
            fn.fn_acquires;
          (* later calls into lock-taking callees *)
          List.iter
            (fun (r, l2) ->
              if l2 > l1 then
                match resolve facts fn r with
                | Some g ->
                    List.iter
                      (fun c2 ->
                        if c1 <> c2 then
                          add
                            {
                              le_from = c1;
                              le_to = c2;
                              le_why =
                                Printf.sprintf
                                  "%s holds %s when calling %s (takes %s)"
                                  fn.fn_name c1 g c2;
                              le_file = fn.fn_file;
                              le_line = l2;
                            })
                      (lock_classes_of g)
                | None -> ())
            fn.fn_refs)
        fn.fn_acquires)
    (sorted_fns facts);
  List.sort compare !edges

(* First cycle in the class digraph, as a node path, if any. *)
let find_cycle edges =
  let succs n =
    List.filter_map
      (fun e -> if e.le_from = n then Some e.le_to else None)
      edges
  in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.le_from; e.le_to ]) edges)
  in
  let rec dfs path visiting n =
    if List.mem n path then
      (* cycle: the suffix of [path] from n, plus n again *)
      let rec suffix = function
        | [] -> []
        | x :: rest -> if x = n then x :: rest else suffix rest
      in
      Some (suffix (List.rev path) @ [ n ])
    else if List.mem n visiting then None
    else
      List.fold_left
        (fun acc s ->
          match acc with Some _ -> acc | None -> dfs (n :: path) visiting s)
        None (succs n)
  in
  List.fold_left
    (fun acc n -> match acc with Some _ -> acc | None -> dfs [] [] n)
    None nodes

let lock_findings (facts : facts) =
  let opaque =
    List.concat_map
      (fun fn ->
        List.filter_map
          (fun (c, ln) ->
            if c <> "?" then None
            else
              Some
                {
                  f_rule = "lock-order";
                  f_file = fn.fn_file;
                  f_line = ln;
                  f_msg =
                    Printf.sprintf
                      "%s acquires a lock whose key the static analysis \
                       cannot classify"
                      fn.fn_name;
                  f_chain = [];
                })
          fn.fn_acquires)
      (sorted_fns facts)
  in
  let edges = lock_edges facts in
  let cycle =
    match find_cycle edges with
    | None -> []
    | Some path ->
        let evidence =
          List.filter
            (fun e -> List.mem e.le_from path && List.mem e.le_to path)
            edges
        in
        let e0 = List.hd evidence in
        [
          {
            f_rule = "lock-order";
            f_file = e0.le_file;
            f_line = e0.le_line;
            f_msg =
              Printf.sprintf "lock-order cycle: %s" (String.concat " -> " path);
            f_chain = List.map (fun e -> e.le_why) evidence;
          };
        ]
  in
  sort_findings (opaque @ cycle)

(* ---------------- protocol exhaustiveness ---------------- *)

(* Does a markdown table in [doc] have a cell equal to [v]? *)
let doc_has_cell doc v =
  List.exists
    (fun line ->
      let line = String.trim line in
      String.length line > 0
      && line.[0] = '|'
      && List.exists
           (fun cell -> String.trim cell = v)
           (String.split_on_char '|' line))
    (String.split_on_char '\n' doc)

let proto_finding ?(chain = []) facts ~rule name msg =
  let file, line =
    match Hashtbl.find_opt facts name with
    | Some fn -> (fn.fn_file, fn.fn_line)
    | None -> ("?", 0)
  in
  { f_rule = rule; f_file = file; f_line = line; f_msg = msg; f_chain = chain }

(* Every opcode must be referenced from at least [min_refs] distinct
   definitions (in a request/reply protocol: the sender and the
   dispatch arm) and appear as a table cell in the doc. *)
let proto_op_findings (facts : facts) ~doc
    ?(min_refs = 2) ops =
  List.concat_map
    (fun (name, value) ->
      let refs = refs_to facts name in
      let mk ?chain msg =
        proto_finding ?chain facts ~rule:"proto-exhaustive" name msg
      in
      let arm =
        if List.length refs >= min_refs then []
        else
          [
            mk ~chain:refs
              (Printf.sprintf
                 "opcode %s (%d) referenced from %d definition(s), needs \
                  >= %d (sender + dispatch arm)"
                 name value (List.length refs) min_refs);
          ]
      in
      let docd =
        if doc_has_cell doc (string_of_int value) then []
        else
          [
            mk
              (Printf.sprintf "opcode %s (%d) has no PROTOCOL.md table row"
                 name value);
          ]
      in
      arm @ docd)
    ops
  |> sort_findings

(* String verbs (the replication protocol): the literal must occur in
   at least [min_refs] distinct definitions of [unit_name] (client
   sender and server match arm) and in the doc's table. *)
let proto_verb_findings (facts : facts) ~doc
    ~unit_name ?(min_refs = 2) verbs =
  let fns_with_string v =
    List.filter_map
      (fun fn ->
        if
          fn.fn_unit = unit_name
          && List.exists (fun (s, _) -> s = v) fn.fn_strings
        then Some fn.fn_name
        else None)
      (sorted_fns facts)
  in
  List.concat_map
    (fun v ->
      let where = fns_with_string v in
      let file, line =
        match where with
        | n :: _ -> (
            match Hashtbl.find_opt facts n with
            | Some fn -> (fn.fn_file, fn.fn_line)
            | None -> ("?", 0))
        | [] -> ("?", 0)
      in
      let mk msg chain =
        { f_rule = "proto-exhaustive"; f_file = file; f_line = line;
          f_msg = msg; f_chain = chain }
      in
      let arm =
        if List.length where >= min_refs then []
        else
          [
            mk
              (Printf.sprintf
                 "verb %S appears in %d definition(s) of %s, needs >= %d \
                  (sender + handler arm)"
                 v (List.length where) unit_name min_refs)
              where;
          ]
      in
      let docd =
        if doc_has_cell doc v then []
        else [ mk (Printf.sprintf "verb %S has no PROTOCOL.md table row" v) [] ]
      in
      arm @ docd)
    verbs
  |> sort_findings

(* The [let name = code <idx>] bindings of an error-table unit. *)
let err_codes (facts : facts) ~unit_name =
  List.filter_map
    (fun fn ->
      if fn.fn_unit = unit_name then
        match fn.fn_code_idx with
        | Some i -> Some (fn.fn_name, i)
        | None -> None
      else None)
    (sorted_fns facts)

(* Error codes: named bindings must cover the message table exactly
   (unique indices, in range, no gaps) and each index must have a row
   in the doc's error table. *)
let proto_err_findings (facts : facts) ~doc
    ~unit_name ~size () =
  let codes = err_codes facts ~unit_name in
  let mk name msg = proto_finding facts ~rule:"proto-exhaustive" name msg in
  let by_idx = List.map (fun (n, i) -> (i, n)) codes in
  let dups =
    List.filter_map
      (fun (n, i) ->
        match List.filter (fun (i', _) -> i' = i) by_idx with
        | _ :: _ :: _ ->
            Some
              (mk n
                 (Printf.sprintf
                    "error index %d bound more than once (%s)" i
                    (String.concat ", "
                       (List.map snd
                          (List.filter (fun (i', _) -> i' = i) by_idx)))))
        | _ -> None)
      codes
  in
  let range =
    List.filter_map
      (fun (n, i) ->
        if i < 0 || i >= size then
          Some
            (mk n
               (Printf.sprintf
                  "error index %d out of range for a %d-message table" i
                  size))
        else None)
      codes
  in
  let gaps =
    List.init size (fun i -> i)
    |> List.filter_map (fun i ->
           if List.mem_assoc i by_idx then None
           else
             Some
               {
                 f_rule = "proto-exhaustive";
                 f_file = "?";
                 f_line = 0;
                 f_msg =
                   Printf.sprintf
                     "error index %d of %s has a message but no named \
                      binding"
                     i unit_name;
                 f_chain = [];
               })
  in
  let docd =
    List.filter_map
      (fun (n, i) ->
        if doc_has_cell doc (string_of_int i) then None
        else
          Some
            (mk n
               (Printf.sprintf
                  "error code %s (index %d) has no PROTOCOL.md table row" n
                  i)))
      codes
  in
  sort_findings (dups @ range @ gaps @ docd)

(* ---------------- JSON report ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""

let json_of_finding f =
  Printf.sprintf
    "{\"rule\":%s,\"file\":%s,\"line\":%d,\"msg\":%s,\"chain\":[%s]}"
    (json_str f.f_rule) (json_str f.f_file) f.f_line (json_str f.f_msg)
    (String.concat "," (List.map json_str f.f_chain))

(* [info] entries are pre-rendered JSON values keyed by field name. *)
let report_json ~findings ~info =
  let fields =
    ("findings",
     "[" ^ String.concat "," (List.map json_of_finding findings) ^ "]")
    :: info
  in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}\n"
