(* Seeded inputs: schemas from the program's generator with planted
   faults, renamed and reordered clones, and request lines.  The program
   receives only what is built here. *)

module Gen = Orm_generator.Gen
module Faults = Orm_generator.Faults
module Schema = Orm.Schema

type item = {
  k : int;  (** position in the workload's input set *)
  size : int;  (** generator size (types and facts) *)
  injection : Faults.injection option;  (** the planted fault, if any *)
  schema : Schema.t;
  text : string;  (** DSL source sent to the program *)
}

(* Distinct generator seeds per (run seed, workload, position). *)
let gen_seed ~seed ~salt k = (seed * 1_000_003) + (salt * 10_007) + k

let make_item ~seed ~salt ~k ~size ~fault =
  let s = gen_seed ~seed ~salt k in
  let base = Gen.clean ~config:(Gen.sized size) ~seed:s () in
  let injection = Option.map (fun p -> Faults.inject ~seed:s p base) fault in
  let schema =
    match injection with Some i -> i.Faults.schema | None -> base
  in
  { k; size; injection; schema; text = Orm_dsl.Printer.to_string schema }

(* [n] items whose sizes cover [lo..hi] evenly, in a seeded order; item
   [k] carries a fault when [k mod fault_every = 0], cycling through
   patterns 1-9. *)
let stratified ~seed ~salt ~n ~lo ~hi ~fault_every =
  let span = hi - lo + 1 in
  let rng = Random.State.make [| seed; salt |] in
  let sizes = Common.shuffle rng (Array.init n (fun i -> lo + (i mod span))) in
  Array.init n (fun k ->
      let fault =
        if k mod fault_every = 0 then Some (1 + (k / fault_every mod 9)) else None
      in
      make_item ~seed ~salt ~k ~size:sizes.(k) ~fault)

(* Stratum [m] of an endless stream: items [m * span .. m * span + span - 1]
   with sizes [lo..hi] (span = hi - lo + 1) each exactly once, in a seeded
   order; faults as in {!stratified}, counted on the stream position. *)
let stratum ~seed ~salt ~m ~lo ~hi ~fault_every =
  let span = hi - lo + 1 in
  let rng = Random.State.make [| seed; salt; m |] in
  let sizes = Common.shuffle rng (Array.init span (fun i -> lo + i)) in
  Array.init span (fun i ->
      let k = (m * span) + i in
      let fault =
        if k mod fault_every = 0 then Some (1 + (k / fault_every mod 9)) else None
      in
      make_item ~seed ~salt ~k ~size:sizes.(i) ~fault)

(* ---- renaming --------------------------------------------------------- *)

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* Rewrites every maximal identifier run of [s] found in [map]. *)
let rename_tokens map s =
  let n = String.length s in
  let b = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    if is_ident s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident s.[!j] do
        incr j
      done;
      let tok = String.sub s !i (!j - !i) in
      Buffer.add_string b
        (match Hashtbl.find_opt map tok with Some t -> t | None -> tok);
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The same renaming over every string leaf of a JSON value (keys are
   field names, not schema names). *)
let rec rename_json map (v : Orm_json.t) : Orm_json.t =
  match v with
  | String s -> String (rename_tokens map s)
  | List l -> List (List.map (rename_json map) l)
  | Obj fields -> Obj (List.map (fun (k, x) -> (k, rename_json map x)) fields)
  | Null | Bool _ | Int _ | Float _ -> v

(* A clone: every object type, fact type, constraint id and the schema
   name replaced by a fresh name (in a seeded order), and the fact and
   constraint declarations shuffled.  Returns the clone's text and the
   original -> clone name map. *)
let clone ~rng (it : item) =
  let map = Hashtbl.create 64 in
  let fresh prefix names =
    let names = Common.shuffle rng (Array.of_list names) in
    Array.iteri
      (fun i n -> Hashtbl.replace map n (Printf.sprintf "%s%d" prefix i))
      names
  in
  Hashtbl.replace map (Schema.name it.schema) ("Cl_" ^ Schema.name it.schema);
  fresh "Ty" (Schema.object_types it.schema);
  fresh "Fa"
    (List.map (fun (f : Orm.Fact_type.t) -> f.name) (Schema.fact_types it.schema));
  fresh "k"
    (List.map (fun (c : Orm.Constraints.t) -> c.id) (Schema.constraints it.schema));
  let lines =
    String.split_on_char '\n' it.text |> List.filter (fun l -> String.trim l <> "")
  in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let header, rest =
    match lines with h :: r -> (h, r) | [] -> invalid_arg "clone: empty schema"
  in
  let types = List.filter (starts "object_type") rest in
  let facts = List.filter (starts "fact ") rest in
  let others =
    List.filter (fun l -> not (starts "object_type" l || starts "fact " l)) rest
  in
  let shuffled l = Array.to_list (Common.shuffle rng (Array.of_list l)) in
  let text =
    String.concat "\n"
      (List.map (rename_tokens map)
         ((header :: types) @ shuffled facts @ shuffled others))
    ^ "\n"
  in
  (text, map)
