(* Derived format evolutions.

   An evolution step takes a format [before] and produces a format [after]
   one plausible schema change away (rename / add / drop / reorder / retype
   of top-level fields), together with the Ecode snippet that rolls an
   [after] message back into a [before] message — the retro-transformation a
   writer would attach to its meta-data (paper, Figure 1).  A chain strings
   several steps together: base = v0, head = v_n.

   Structural rules maintained by construction:
     - a variable array and the integer length field it reads form an atomic
       adjacent group: they are added, dropped and reordered together, and
       length fields are never renamed or retyped;
     - rename/add targets are fresh chain-wide, and a field is never retyped
       back to a type it already had, so no two formats in a chain are
       structurally equal and every diff-perfect pair of chain formats is
       related by value-preserving steps only (this is what lets the chain
       oracle demand value equality even when the receiver short-circuits
       part of the chain);
     - retype moves are limited so the *rollback* coercion (new type back to
       old type) is total: within {int, uint, char, bool} anything goes,
       anything coerces to float, and float coerces to int/uint only; enum
       and string coercions are partial.  (Float-to-char and float-to-bool
       were left out when the two Ecode engines disagreed on them; they no
       longer do, but widening the policy would change every campaign's
       cases at a given seed.) *)

open Pbio

type op =
  | Rename of { field : string; to_ : string }
  | Add of { field : string; ty : Ptype.basic }
  | Drop of { fields : string list }
  | Reorder
  | Retype of { field : string; from_ : Ptype.basic; to_ : Ptype.basic }

let pp_op ppf = function
  | Rename { field; to_ } -> Fmt.pf ppf "rename %s -> %s" field to_
  | Add { field; ty } -> Fmt.pf ppf "add %s : %a" field Ptype.pp_type (Ptype.Basic ty)
  | Drop { fields } -> Fmt.pf ppf "drop %s" (String.concat ", " fields)
  | Reorder -> Fmt.string ppf "reorder"
  | Retype { field; from_; to_ } ->
    Fmt.pf ppf "retype %s : %a -> %a" field
      Ptype.pp_type (Ptype.Basic from_) Ptype.pp_type (Ptype.Basic to_)

type step = {
  before : Ptype.record;
  after : Ptype.record;
  op : op;
  code : string; (* Ecode rolling an [after] message back into [before] *)
}

type chain = {
  base : Ptype.record; (* v0: the format receivers register *)
  steps : step list;   (* oldest first: base -> ... -> head *)
}

let head (c : chain) : Ptype.record =
  List.fold_left (fun _ (s : step) -> s.after) c.base c.steps

let formats (c : chain) : Ptype.record list =
  c.base :: List.map (fun s -> s.after) c.steps

(* --- field groups -------------------------------------------------------- *)

(* Names used as variable-array length fields anywhere in [r]'s top level. *)
let length_field_names (r : Ptype.record) : string list =
  List.filter_map
    (fun (f : Ptype.field) ->
       match f.ftype with
       | Ptype.Array { size = Length_field n; _ } -> Some n
       | _ -> None)
    r.fields

(* Top-level fields partitioned into atomic groups: a variable array is
   glued to the immediately preceding singleton group when that group is its
   length field. *)
let groups (r : Ptype.record) : Ptype.field list list =
  let rec go acc = function
    | [] -> List.rev (List.map List.rev acc)
    | (f : Ptype.field) :: rest ->
      (match f.ftype, acc with
       | Ptype.Array { size = Length_field n; _ }, [ (lf : Ptype.field) ] :: accrest
         when lf.fname = n ->
         go ([ f; lf ] :: accrest) rest
       | _ -> go ([ f ] :: acc) rest)
  in
  go [] r.fields

let ungroup (gs : Ptype.field list list) : Ptype.field list = List.concat gs

(* Groups may be permuted freely only if every variable array finds its
   length field earlier within its own group. *)
let reorder_safe (gs : Ptype.field list list) : bool =
  List.for_all
    (fun g ->
       let rec ok earlier = function
         | [] -> true
         | (f : Ptype.field) :: rest ->
           (match f.ftype with
            | Ptype.Array { size = Length_field n; _ } when not (List.mem n earlier) -> false
            | _ -> ok (f.fname :: earlier) rest)
       in
       ok [] g)
    gs

(* --- retype policy ------------------------------------------------------- *)

(* Valid new types for a field currently of the given type.  The constraint
   runs on the rollback direction (new -> old): float may not roll back to
   char or bool, so a char or bool field never *becomes* float. *)
let retype_targets : Ptype.basic -> Ptype.basic list = function
  | Ptype.Int -> [ Ptype.Uint; Char; Bool; Float ]
  | Uint -> [ Ptype.Int; Char; Bool; Float ]
  | Char -> [ Ptype.Int; Uint; Bool ]
  | Bool -> [ Ptype.Int; Uint; Char ]
  | Float -> [ Ptype.Int; Uint; Char; Bool ]
  | String | Enum _ -> []

(* --- rollback code -------------------------------------------------------- *)

(* One copy statement per [before] field surviving in [after]; renamed
   fields read from their new name, dropped fields keep their defaults.
   Type changes go through Ecode's assignment coercions. *)
let rollback_code (before : Ptype.record) (after : Ptype.record)
    ~(renames : (string * string) list) : string =
  let buf = Buffer.create 128 in
  List.iter
    (fun (f : Ptype.field) ->
       let src = Option.value (List.assoc_opt f.fname renames) ~default:f.fname in
       if List.exists (fun (g : Ptype.field) -> g.fname = src) after.Ptype.fields then
         Buffer.add_string buf (Printf.sprintf "old.%s = new.%s;\n" f.fname src))
    before.Ptype.fields;
  Buffer.contents buf

(* --- step generation ------------------------------------------------------ *)

(* Chain-wide bookkeeping: [used] reserves every top-level field name any
   chain format has carried (rename/add targets must be globally fresh);
   [history] records every basic type a field has had, so retypes never
   cycle back. *)
type ctx = {
  used : string list;
  history : (string * Ptype.basic list) list;
}

let ctx_of (r : Ptype.record) : ctx =
  {
    used = List.map (fun (f : Ptype.field) -> f.fname) r.fields;
    history =
      List.filter_map
        (fun (f : Ptype.field) ->
           match f.ftype with Ptype.Basic b -> Some (f.fname, [ b ]) | _ -> None)
        r.fields;
  }

let fresh_name (ctx : ctx) : (string * ctx) Rgen.t =
  let open Rgen in
  let* n0 = int_range 0 9999 in
  let rec find n =
    let cand = Printf.sprintf "g%d" n in
    if List.mem cand ctx.used then find (n + 1) else cand
  in
  let name = find n0 in
  return (name, { ctx with used = name :: ctx.used })

let with_fields (r : Ptype.record) fields = { r with Ptype.fields }

let finish_step (before : Ptype.record) after_fields op ~renames : step =
  let after = with_fields before after_fields in
  { before; after; op; code = rollback_code before after ~renames }

let add_step (ctx : ctx) (before : Ptype.record) : (step * ctx) Rgen.t =
  let open Rgen in
  let gs = groups before in
  let* ty = Gen.basic in
  let* name, ctx = fresh_name ctx in
  let* pos = int_range 0 (List.length gs) in
  let rec insert i = function
    | rest when i = 0 -> [ { Ptype.fname = name; ftype = Basic ty; fdefault = None } ] :: rest
    | [] -> [ [ { Ptype.fname = name; ftype = Basic ty; fdefault = None } ] ]
    | g :: rest -> g :: insert (i - 1) rest
  in
  let after_fields = ungroup (insert pos gs) in
  let ctx = { ctx with history = (name, [ ty ]) :: ctx.history } in
  return (finish_step before after_fields (Add { field = name; ty }) ~renames:[], ctx)

let step_in_ctx (ctx : ctx) (before : Ptype.record) : (step * ctx) Rgen.t =
  let open Rgen in
  let gs = groups before in
  let lfs = length_field_names before in
  let pinned name = List.mem name lfs in
  (* rename: any non-length field *)
  let rename_candidates =
    List.filter (fun (f : Ptype.field) -> not (pinned f.fname)) before.Ptype.fields
  in
  let rename =
    if rename_candidates = [] then None
    else
      Some
        (let* f = oneofl rename_candidates in
         let* to_, ctx = fresh_name ctx in
         let after_fields =
           List.map
             (fun (g : Ptype.field) -> if g.fname = f.Ptype.fname then { g with fname = to_ } else g)
             before.Ptype.fields
         in
         let ctx =
           { ctx with
             history =
               List.map
                 (fun (n, ts) -> if n = f.Ptype.fname then (to_, ts) else (n, ts))
                 ctx.history }
         in
         return
           ( finish_step before after_fields
               (Rename { field = f.Ptype.fname; to_ })
               ~renames:[ (f.Ptype.fname, to_) ],
             ctx ))
  in
  (* drop: a whole group, as long as at least one group remains and no field
     outside the group reads a length field inside it *)
  let drop =
    if List.length gs < 2 then None
    else
      let droppable =
        List.filter
          (fun g ->
             let names = List.map (fun (f : Ptype.field) -> f.Ptype.fname) g in
             List.for_all
               (fun (f : Ptype.field) ->
                  List.mem f.fname names
                  ||
                  match f.ftype with
                  | Ptype.Array { size = Length_field n; _ } -> not (List.mem n names)
                  | _ -> true)
               before.Ptype.fields)
          gs
      in
      if droppable = [] then None
      else
        Some
          (let* g = oneofl droppable in
           let names = List.map (fun (f : Ptype.field) -> f.Ptype.fname) g in
           let after_fields =
             List.filter
               (fun (f : Ptype.field) -> not (List.mem f.fname names))
               before.Ptype.fields
           in
           return (finish_step before after_fields (Drop { fields = names }) ~renames:[], ctx))
  in
  (* reorder: shuffle the groups *)
  let reorder =
    if List.length gs < 2 || not (reorder_safe gs) then None
    else
      Some
        (let* gs' = shuffle gs in
         return (finish_step before (ungroup gs') Reorder ~renames:[], ctx))
  in
  (* retype: a basic, non-length field, to an engine-agreed type it has
     never had *)
  let retype_candidates =
    List.filter_map
      (fun (f : Ptype.field) ->
         match f.ftype with
         | Ptype.Basic b when not (pinned f.fname) ->
           let past =
             Option.value (List.assoc_opt f.fname ctx.history) ~default:[ b ]
           in
           let targets =
             List.filter
               (fun t -> not (List.exists (Ptype.equal_basic t) past))
               (retype_targets b)
           in
           if targets = [] then None else Some (f, b, targets)
         | _ -> None)
      before.Ptype.fields
  in
  let retype =
    if retype_candidates = [] then None
    else
      Some
        (let* f, from_, targets = oneofl retype_candidates in
         let* to_ = oneofl targets in
         let after_fields =
           List.map
             (fun (g : Ptype.field) ->
                if g.fname = f.Ptype.fname then { g with ftype = Ptype.Basic to_ } else g)
             before.Ptype.fields
         in
         let ctx =
           { ctx with
             history =
               List.map
                 (fun (n, ts) -> if n = f.Ptype.fname then (n, to_ :: ts) else (n, ts))
                 ctx.history }
         in
         return
           ( finish_step before after_fields
               (Retype { field = f.Ptype.fname; from_; to_ })
               ~renames:[],
             ctx ))
  in
  let viable =
    List.filter_map
      (fun (w, o) -> Option.map (fun g -> (w, g)) o)
      [
        (3, rename);
        (3, Some (add_step ctx before));
        (2, drop);
        (2, reorder);
        (2, retype);
      ]
  in
  let* chosen = frequencyl viable in
  chosen

let step (before : Ptype.record) : step Rgen.t =
  Rgen.map fst (step_in_ctx (ctx_of before) before)

(* --- chains --------------------------------------------------------------- *)

let chain ?(max_steps = 3) (base : Ptype.record) : chain Rgen.t =
  let open Rgen in
  let* n = int_range 1 max_steps in
  let rec go ctx prev cur steps_rev k =
    if k = 0 then return { base; steps = List.rev steps_rev }
    else
      let rec attempt tries =
        let* s, ctx' = step_in_ctx ctx cur in
        if List.exists (Ptype.equal_record s.after) prev then
          if tries > 0 then attempt (tries - 1)
          else
            (* an added fresh-named field can equal no earlier format *)
            add_step ctx cur
        else return (s, ctx')
      in
      let* s, ctx = attempt 4 in
      go ctx (s.after :: prev) s.after (s :: steps_rev) (k - 1)
  in
  go (ctx_of base) [ base ] base [] n

(* The writer-side meta a head-format sender would ship: body = head, one
   retro-transformation per hop, each naming its true source so receivers
   can chain them (Figure 1's Rev 2.0 -> Rev 1.0 -> Rev 0.0 lineage). *)
let meta_of_chain (c : chain) : Meta.format_meta =
  let hops = List.rev c.steps in
  let xforms =
    List.mapi
      (fun i (s : step) ->
         { Meta.source = (if i = 0 then None else Some s.after);
           target = s.before;
           code = s.code })
      hops
  in
  { Meta.body = head c; xforms }
