let all =
  [
    (* MIG rules — invariants of Mig.Graph (paper §III.A, Ω.I/Ω.C
       normalization, structural hashing) *)
    ("MIG001", "majority fanins are topologically ordered (acyclicity)");
    ("MIG002", "no dangling signal ids in fanins, POs or node slots");
    ("MIG003", "strash table is consistent: every node's normalized key \
                maps back to itself, no structural duplicates, no stale \
                entries");
    ("MIG004", "nodes are normalized: fanins sorted by Signal.compare, at \
                most one complemented fanin, not collapsible by the \
                majority axiom Omega.M");
    ("MIG005", "PI/PO integrity: node 0 is the constant, PI slots and the \
                PI list agree, PI names are unique and present, PO names \
                are unique");
    ("MIG006", "dead-node accounting: nodes unreachable from the POs \
                (cleanup would remove them)");
    (* AIG rules — invariants of Aig.Graph *)
    ("AIG001", "AND fanins are topologically ordered (acyclicity)");
    ("AIG002", "no dangling signal ids in fanins, POs or node slots");
    ("AIG003", "strash table is consistent: every node's key maps back to \
                itself, no structural duplicates, no stale entries");
    ("AIG004", "nodes are normalized: fanins ordered, no constant, equal \
                or complementary fanin pairs");
    ("AIG005", "PI/PO integrity: node 0 is the constant, PI slots and the \
                PI list agree, PI names are unique and present, PO names \
                are unique");
    ("AIG006", "dead-node accounting: nodes unreachable from the POs");
    (* Network rules — invariants of Network.Graph *)
    ("NET001", "gate fanins are topologically ordered (acyclicity)");
    ("NET002", "no dangling signal ids in fanins or POs");
    ("NET003", "strash table is consistent: every gate's key maps back to \
                itself, no structural duplicates, no stale entries");
    ("NET004", "gates are in canonical constructor form: correct arity, \
                sorted symmetric operands, no constant-foldable or \
                collapsible gate");
    ("NET005", "PI/PO integrity: node 0 is the constant, PI names are \
                unique and present, PO names are unique");
    ("NET006", "dead-node accounting: gates unreachable from the POs");
    (* SAN rules — the Lsutil.San domain-ownership/lifetime sanitizer
       (MIG_SAN=1, DESIGN.md §14) *)
    ("SAN001", "cross-domain read of an owned structure (publish or \
                transfer before handing a graph to another domain)");
    ("SAN002", "cross-domain or published-structure mutation (only the \
                owning domain may write; published means read-only)");
    ("SAN003", "stale-generation access: node ids minted before a \
                compact/cleanup renumbering were validated after it");
    ("SAN004", "illegal ownership handoff: publish by a non-owner, or \
                transfer of a structure owned by another domain");
    ("SAN005", "double lease of a scratch buffer (caught at lease time)");
    ("SAN006", "leaked lease: a scratch buffer still out at San.drain");
    (* SRC rules — the AST source linter (tools/lint_src.exe); scopes
       and exemptions live in Lint_rules.applies *)
    ("SRC001", "top-level mutable singleton: structure-level binding to \
                ref/Hashtbl.create/Atomic.make in lib/");
    ("SRC002", "Domain.spawn outside Flow.Batch and the serve daemon");
    ("SRC003", "raw wall-clock read outside Budget/Telemetry in lib/");
    ("SRC004", "Obj.magic anywhere");
    ("SRC005", "catch-all `with _ ->` exception handler in lib/");
    ("SRC006", "Sys.getenv outside Lsutil.Env in lib/");
    ("SRC007", "raw socket call outside lib/serve");
  ]

let describe code = List.assoc_opt code all
let mem code = List.mem_assoc code all

let pp_catalog fmt () =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (code, descr) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%s  %s" code descr)
    all;
  Format.fprintf fmt "@]"
