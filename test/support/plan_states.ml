open Monsoon_util
open Monsoon_stats
open Monsoon_core
module Mcts = Monsoon_mcts.Mcts

let record ?(iterations = 200) ?(max_steps = 40) ~seed ctx =
  let seen = Hashtbl.create 4096 in
  let states = ref [] in
  let sim = Simulator.create ctx Prior.spike_and_slab (Rng.create seed) in
  let p = Simulator.problem sim in
  let recording =
    { p with
      Mcts.actions =
        (fun s ->
          let key = Mdp.state_key s in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            states := s :: !states
          end;
          p.Mcts.actions s) }
  in
  let cfg =
    { (Mcts.default_config ~rng:(Rng.create (seed + 1))) with Mcts.iterations }
  in
  let rec walk state steps =
    if steps < max_steps then
      match Mcts.plan cfg recording state with
      | None -> ()
      | Some (a, _) -> walk (fst (Simulator.step sim state a)) (steps + 1)
  in
  walk (Mdp.init_state ctx) 0;
  Array.of_list (List.rev !states)
