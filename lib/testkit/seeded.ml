(* The shared seeded design pools the test suites draw from.

   [Random.State] here is explicitly seeded by every caller (no ambient
   state is ever read), so the determinism invariant holds; the module is
   exempted by name from sslint's SA001 rule. The draw procedure is kept
   byte-for-byte faithful to the hand-rolled loops it replaced
   (test_parallel/test_engine), so historical seeds keep reproducing the
   same candidate lists. *)

open Storage_units
open Storage_model
open Storage_optimize
open Storage_presets

let pool_space =
  {
    Candidate.pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations = [ Duration.hours 6.; Duration.hours 12. ];
    pit_retentions = [ 2; 4 ];
    backup_accumulations = [ Duration.hours 24.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 1.; Duration.weeks 4. ];
    vault_retention_horizon = Duration.years 1.;
    mirror_links = [ 1; 4 ];
  }

let lint_space =
  {
    Candidate.pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations = [ Duration.hours 12. ];
    pit_retentions = [ 2; 4 ];
    backup_accumulations = [ Duration.hours 24.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 4. ];
    vault_retention_horizon = Duration.years 1.;
    mirror_links = [ 1; 4 ];
  }

let grid space = List.of_seq (Candidate.enumerate (Whatif.search_kit ()) space)

let pool_memo = lazy (grid pool_space)
let pool () = Lazy.force pool_memo
let pool_again () = grid pool_space
let lint_pool_memo = lazy (grid lint_space)
let lint_pool () = Lazy.force lint_pool_memo

let draw ~seed ~n pool =
  if pool = [] then invalid_arg "Seeded.draw: empty pool";
  let st = Random.State.make seed in
  let len = List.length pool in
  List.init n (fun _ -> List.nth pool (Random.State.int st len))

let scaled ~factor (d : Design.t) =
  Design.make
    ~name:(Printf.sprintf "%s-x%.3g" d.Design.name factor)
    ~workload:(Storage_workload.Workload.grow d.Design.workload ~factor)
    ~hierarchy:d.Design.hierarchy ~business:d.Design.business ()
