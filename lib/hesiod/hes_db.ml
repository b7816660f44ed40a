type record =
  | Unspeca of string
  | Cname of string

module Smap = Map.Make (String)

type t = record list Smap.t

let empty = Smap.empty

(* Split a line into whitespace-separated words, keeping a trailing
   quoted string intact. *)
let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = ';' then None
  else
    match String.index_opt line '"' with
    | Some q ->
        (* name HS UNSPECA "data..." *)
        let head = String.sub line 0 q in
        let rest = String.sub line q (String.length line - q) in
        let data =
          let r = String.trim rest in
          if String.length r >= 2 && r.[0] = '"' && r.[String.length r - 1] = '"'
          then String.sub r 1 (String.length r - 2)
          else r
        in
        (match
           String.split_on_char ' ' head
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         with
        | [ name; "HS"; "UNSPECA" ] -> Some (name, Unspeca data)
        | _ -> None)
    | None -> (
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun w -> w <> "")
        with
        | [ name; "HS"; "CNAME"; target ] -> Some (name, Cname target)
        | [ name; "HS"; "UNSPECA"; data ] -> Some (name, Unspeca data)
        | _ -> None)

let add key record t =
  let existing = Option.value (Smap.find_opt key t) ~default:[] in
  Smap.add key (existing @ [ record ]) t

let parse contents =
  List.fold_left
    (fun t line ->
      match parse_line line with
      | Some (name, record) -> add name record t
      | None -> t)
    empty
    (String.split_on_char '\n' contents)

let lookup t key = Option.value (Smap.find_opt key t) ~default:[]

(* Lookup across a stack of per-file databases, in file order: the
   concatenation equals a lookup in their union, without ever paying the
   O(total keys) merge. *)
let lookup_stacked dbs key = List.concat_map (fun t -> lookup t key) dbs

let resolve_stacked dbs ~name ~ty =
  let rec go key depth =
    if depth > 8 then []
    else
      List.concat_map
        (function
          | Unspeca data -> [ data ]
          | Cname target -> go target (depth + 1))
        (lookup_stacked dbs key)
  in
  go (name ^ "." ^ ty) 0

let resolve t ~name ~ty = resolve_stacked [ t ] ~name ~ty

let format_unspeca ~key data = Printf.sprintf "%s HS UNSPECA \"%s\"" key data
let format_cname ~key target = Printf.sprintf "%s HS CNAME %s" key target
let size t = Smap.cardinal t
