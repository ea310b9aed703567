//! The paper's example programs, embedded as a corpus.
//!
//! Sources are transcribed from the paper (Sections V and VI) with the
//! `...` continuations resolved; where the paper's prose and listings
//! disagree, each program's doc comment says which reading is encoded
//! here.

/// A minimal parallel hello world (not in the paper, but the obvious
/// first program: Section VI.D opens with exactly this `VISIBLE`).
pub const HELLO_PARALLEL: &str = "\
HAI 1.2
VISIBLE \"HAI ITZ \" ME \" OF \" MAH FRENZ
KTHXBYE
";

/// Section VI.A — initialization, symmetric allocation, and the
/// circular whole-array transfer.
pub const RING_EXAMPLE: &str = "\
HAI 1.2
BTW Section VI.A: identify PEs, allocate symmetric array, circular copy
I HAS A pe ITZ A NUMBR AN ITZ ME
I HAS A n_pes ITZ A NUMBR AN ITZ MAH FRENZ
WE HAS A array ITZ SRSLY LOTZ A NUMBRS ...
  AN THAR IZ 32
I HAS A next_pe ITZ A NUMBR ...
  AN ITZ SUM OF pe AN 1
next_pe R MOD OF next_pe AN n_pes
IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 32
  array'Z i R SUM OF PRODUKT OF pe AN 1000 AN i
IM OUTTA YR fill
HUGZ
I HAS A mine ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 32
TXT MAH BFF next_pe, MAH mine R UR array
VISIBLE \"PE \" pe \" GOT \" mine'Z 0 \" .. \" mine'Z 31
KTHXBYE
";

/// Section VI.B — locks on shared data (the faithful remote-increment
/// reading: every PE increments PE 0's `x` under its lock).
pub const LOCKS_EXAMPLE: &str = "\
HAI 1.2
BTW Section VI.B: protect shared data wif da implicit lock
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
HUGZ
I HAS A k ITZ 0
TXT MAH BFF k AN STUFF
  IM SRSLY MESIN WIF UR x
  UR x R SUM OF UR x AN 1
  DUN MESIN WIF UR x
TTYL
HUGZ
VISIBLE \"PE \" ME \" SEES X = \" x
KTHXBYE
";

/// Section VI.C / Figure 2 — barriers and symmetric data movement.
pub const BARRIER_EXAMPLE: &str = "\
HAI 1.2
BTW Section VI.C: UR b R MAH a, HUGZ, c R SUM OF a AN b
WE HAS A a ITZ SRSLY A NUMBR
WE HAS A b ITZ SRSLY A NUMBR
WE HAS A c ITZ SRSLY A NUMBR
a R SUM OF ME AN 1
HUGZ
I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
TXT MAH BFF k, UR b R MAH a
HUGZ
c R SUM OF a AN b
VISIBLE \"PE \" ME \":: C = \" c
KTHXBYE
";

/// Section V — the trylock-then-lock pattern (with the Table II
/// reading of SRSLY vs non-SRSLY).
pub const TRYLOCK_EXAMPLE: &str = "\
HAI 1.2
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
I HAS A new_value ITZ 42
IM MESIN WIF x, O RLY?
NO WAI,
  IM SRSLY MESIN WIF x
OIC
x R new_value
DUN MESIN WIF x
VISIBLE \"PE \" ME \" WROTE \" x
KTHXBYE
";

/// Build the Section VI.D 2D n-body program for `particles` particles
/// per PE and `steps` timesteps. `nbody_source(32, 10)` is the paper's
/// configuration.
pub fn nbody_source(particles: usize, steps: usize) -> String {
    format!(
        "\
HAI 1.2
OBTW
* 2D N-Body algorithm: propagate particles
* subject to Newtonian dynamics written in
* LOLCODE with parallel and other extensions.
TLDR

I HAS A little_time ITZ SRSLY A NUMBAR ...
  AN ITZ 0.001

I HAS A x ITZ SRSLY A NUMBAR
I HAS A y ITZ SRSLY A NUMBAR
I HAS A vx ITZ SRSLY A NUMBAR
I HAS A vy ITZ SRSLY A NUMBAR
I HAS A ax ITZ SRSLY A NUMBAR
I HAS A ay ITZ SRSLY A NUMBAR
I HAS A dx ITZ SRSLY A NUMBAR
I HAS A dy ITZ SRSLY A NUMBAR
I HAS A inv_d ITZ SRSLY A NUMBAR
I HAS A f ITZ SRSLY A NUMBAR

I HAS A vel_x ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n}
I HAS A vel_y ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n}
I HAS A tmppos_x ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n}
I HAS A tmppos_y ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n}

WE HAS A pos_x ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n} AN IM SHARIN IT
WE HAS A pos_y ITZ SRSLY LOTZ A NUMBARS ...
  AN THAR IZ {n} AN IM SHARIN IT

VISIBLE \"HAI ITZ \" ME \" I HAS PARTICLZ 2 MUV\"

HUGZ

IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN {n}
  pos_x'Z i R SUM OF ME AN WHATEVAR
  pos_y'Z i R SUM OF ME AN WHATEVAR
  vel_x'Z i R QUOSHUNT OF SUM OF ME ...
    AN WHATEVAR AN 1000
  vel_y'Z i R QUOSHUNT OF SUM OF ME ...
    AN WHATEVAR AN 1000
IM OUTTA YR loop

BTW DEVIATION FROM DA PAPER: da original listing
BTW has no barrier here, so a fast PE can read a slow PE's pos_x/pos_y
BTW before dey iz initialized — a real data race in da published code.
HUGZ

IM IN YR loop UPPIN YR time TIL BOTH SAEM ...
  time AN {steps}

  IM IN YR loop UPPIN YR i TIL BOTH SAEM ...
    i AN {n}
    x R pos_x'Z i
    y R pos_y'Z i
    vx R vel_x'Z i
    vy R vel_y'Z i
    ax R 0
    ay R 0
    IM IN YR loop UPPIN YR j TIL ...
      BOTH SAEM j AN {n}
      DIFFRINT i AN j, O RLY?
      YA RLY,
        dx R DIFF OF pos_x'Z i AN pos_x'Z j
        dy R DIFF OF pos_y'Z i AN pos_y'Z j
        dx R PRODUKT OF dx AN dx
        dy R PRODUKT OF dy AN dy
        inv_d R FLIP OF UNSQUAR OF ...
          SUM OF dx AN dy
        f R PRODUKT OF inv_d AN ...
          SQUAR OF inv_d
        ax R SUM OF ax AN PRODUKT OF dx AN f
        ay R SUM OF ay AN PRODUKT OF dy AN f
      OIC
    IM OUTTA YR loop

    IM IN YR loop UPPIN YR k TIL ...
      BOTH SAEM k AN MAH FRENZ
      DIFFRINT k AN ME, O RLY?
        YA RLY,
          IM IN YR loop UPPIN YR j TIL ...
            BOTH SAEM j AN {n}
            TXT MAH BFF k AN STUFF,
              dx R DIFF OF pos_x'Z i AN ...
                UR pos_x'Z j
              dy R DIFF OF pos_y'Z i AN ...
                UR pos_y'Z j
            TTYL
            dx R PRODUKT OF dx AN dx
            dy R PRODUKT OF dy AN dy
            inv_d R FLIP OF UNSQUAR OF ...
              SUM OF dx AN dy
            f R PRODUKT OF inv_d AN ...
              SQUAR OF inv_d
            ax R SUM OF ax AN PRODUKT OF ...
              dx AN f
            ay R SUM OF ay AN PRODUKT OF ...
              dy AN f
          IM OUTTA YR loop
      OIC
    IM OUTTA YR loop

    x R SUM OF x AN SUM OF PRODUKT OF vx ...
      AN little_time AN PRODUKT OF 0.5 ...
      AN PRODUKT OF ax AN SQUAR OF ...
      little_time
    y R SUM OF y AN SUM OF PRODUKT OF vy ...
      AN little_time AN PRODUKT OF 0.5 ...
      AN PRODUKT OF ay AN SQUAR OF ...
      little_time

    vx R SUM OF vx AN PRODUKT OF ax AN ...
      little_time
    vy R SUM OF vy AN PRODUKT OF ay AN ...
      little_time

    tmppos_x'Z i R x
    tmppos_y'Z i R y
    vel_x'Z i R vx
    vel_y'Z i R vy
  IM OUTTA YR loop

  HUGZ

  IM IN YR loop UPPIN YR i TIL BOTH SAEM ...
    i AN {n}
    pos_x'Z i R tmppos_x'Z i
    pos_y'Z i R tmppos_y'Z i
  IM OUTTA YR loop

  HUGZ

IM OUTTA YR loop
VISIBLE \"O HAI ITZ \" ME \", MAH PARTICLZ IZ::\"
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN {n}
  VISIBLE pos_x'Z i \" \" pos_y'Z i
IM OUTTA YR loop

KTHXBYE
",
        n = particles,
        steps = steps
    )
}

/// The paper's exact Section VI.D configuration: 32 particles per PE,
/// 10 timesteps.
pub fn nbody_paper() -> String {
    nbody_source(32, 10)
}

/// Build a 2-D heat-diffusion stencil (not in the paper; the canonical
/// locality-sensitive PDC workload). The plate is distributed by row
/// blocks: each PE owns `rows` rows of `cols` cells, exchanges one halo
/// row with each neighbouring PE per step (nearest-neighbour traffic —
/// exactly what the mesh/torus latency models reward), applies the
/// insulated 5-point stencil, and reports its block's total heat.
///
/// PE 0 injects 100.0 units of heat into one cell before the first
/// step, so total heat across all PEs is conserved at 100 (mod YARN
/// print rounding).
pub fn heat2d_source(rows: usize, cols: usize, steps: usize) -> String {
    assert!(rows >= 1 && cols >= 2, "heat2d needs at least a 1x2 block per PE");
    format!(
        "\
HAI 1.2
BTW 2-D heat: row-block distribution, halo rows, 5-point stencil
WE HAS A u ITZ SRSLY LOTZ A NUMBARS AN THAR IZ {cells}
I HAS A unew ITZ SRSLY LOTZ A NUMBARS AN THAR IZ {cells}
I HAS A hup ITZ SRSLY LOTZ A NUMBARS AN THAR IZ {cols}
I HAS A hdn ITZ SRSLY LOTZ A NUMBARS AN THAR IZ {cols}
I HAS A here ITZ SRSLY A NUMBAR
I HAS A nn ITZ SRSLY A NUMBAR
I HAS A ss ITZ SRSLY A NUMBAR
I HAS A ww ITZ SRSLY A NUMBAR
I HAS A ee ITZ SRSLY A NUMBAR
I HAS A idx ITZ SRSLY A NUMBR
I HAS A last ITZ A NUMBR AN ITZ DIFF OF MAH FRENZ AN 1

BTW PE 0 injects da heat in da middle of its block
BOTH SAEM ME AN 0, O RLY?
YA RLY
  u'Z {hot} R 100.0
OIC
HUGZ

IM IN YR time UPPIN YR t TIL BOTH SAEM t AN {steps}
  BTW phase 1: halo rows (insulated plate: default to own edge row)
  IM IN YR halo UPPIN YR j TIL BOTH SAEM j AN {cols}
    hup'Z j R u'Z j
    hdn'Z j R u'Z SUM OF {lastrow} AN j
  IM OUTTA YR halo
  BIGGER ME AN 0, O RLY?
  YA RLY
    IM IN YR getup UPPIN YR j TIL BOTH SAEM j AN {cols}
      TXT MAH BFF DIFF OF ME AN 1, hup'Z j R UR u'Z SUM OF {lastrow} AN j
    IM OUTTA YR getup
  OIC
  SMALLR ME AN last, O RLY?
  YA RLY
    IM IN YR getdn UPPIN YR j TIL BOTH SAEM j AN {cols}
      TXT MAH BFF SUM OF ME AN 1, hdn'Z j R UR u'Z j
    IM OUTTA YR getdn
  OIC
  HUGZ

  BTW phase 2: insulated 5-point stencil into unew
  IM IN YR rows UPPIN YR r TIL BOTH SAEM r AN {rows}
    IM IN YR colz UPPIN YR cc TIL BOTH SAEM cc AN {cols}
      idx R SUM OF PRODUKT OF r AN {cols} AN cc
      here R u'Z idx
      BOTH SAEM r AN 0, O RLY?
      YA RLY
        nn R hup'Z cc
      NO WAI
        nn R u'Z DIFF OF idx AN {cols}
      OIC
      BOTH SAEM r AN {lastr}, O RLY?
      YA RLY
        ss R hdn'Z cc
      NO WAI
        ss R u'Z SUM OF idx AN {cols}
      OIC
      BOTH SAEM cc AN 0, O RLY?
      YA RLY
        ww R here
      NO WAI
        ww R u'Z DIFF OF idx AN 1
      OIC
      BOTH SAEM cc AN {lastc}, O RLY?
      YA RLY
        ee R here
      NO WAI
        ee R u'Z SUM OF idx AN 1
      OIC
      unew'Z idx R SUM OF here AN PRODUKT OF 0.125 ...
        AN SUM OF SUM OF DIFF OF nn AN here AN DIFF OF ss AN here ...
        AN SUM OF DIFF OF ww AN here AN DIFF OF ee AN here
    IM OUTTA YR colz
  IM OUTTA YR rows

  BTW phase 3: publish unew, den hug
  IM IN YR copy UPPIN YR i TIL BOTH SAEM i AN {cells}
    u'Z i R unew'Z i
  IM OUTTA YR copy
  HUGZ
IM OUTTA YR time

I HAS A heat ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR tally UPPIN YR i TIL BOTH SAEM i AN {cells}
  heat R SUM OF heat AN u'Z i
IM OUTTA YR tally
VISIBLE \"PE \" ME \" HEAT \" heat
KTHXBYE
",
        cells = rows * cols,
        cols = cols,
        rows = rows,
        lastrow = (rows - 1) * cols,
        lastr = rows - 1,
        lastc = cols - 1,
        hot = (rows / 2) * cols + cols / 2,
        steps = steps,
    )
}

/// Build a parallel histogram (not in the paper; the canonical
/// irregular-communication PDC workload). Each PE draws
/// `samples_per_pe` seeded `WHATEVR` values, bins them into its own
/// instance of a shared `LOTZ`, hugs, then all-gathers every PE's bins
/// with remote reads to form the global histogram — so the gather phase
/// does `(P-1) * bins` remote gets per PE, a sweep-visible all-to-all.
///
/// Every PE prints the same global bin counts plus the total
/// (`P * samples_per_pe`), making the output an easy determinism and
/// backend-equivalence oracle.
pub fn histogram_source(bins: usize, samples_per_pe: usize) -> String {
    assert!(bins >= 2, "histogram needs at least 2 bins");
    format!(
        "\
HAI 1.2
BTW parallel histogram: local binning, HUGZ, all-gather reduction
WE HAS A bins ITZ SRSLY LOTZ A NUMBRS AN THAR IZ {bins} AN IM SHARIN IT
I HAS A total ITZ SRSLY LOTZ A NUMBRS AN THAR IZ {bins}
I HAS A b ITZ SRSLY A NUMBR

IM IN YR draw UPPIN YR i TIL BOTH SAEM i AN {samples}
  b R MOD OF WHATEVR AN {bins}
  bins'Z b R SUM OF bins'Z b AN 1
IM OUTTA YR draw
HUGZ

IM IN YR gather UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ
  IM IN YR acc UPPIN YR j TIL BOTH SAEM j AN {bins}
    TXT MAH BFF k, total'Z j R SUM OF total'Z j AN UR bins'Z j
  IM OUTTA YR acc
IM OUTTA YR gather

I HAS A grand ITZ 0
VISIBLE \"PE \" ME \" BINZ\"!
IM IN YR show UPPIN YR j TIL BOTH SAEM j AN {bins}
  VISIBLE \" \" total'Z j!
  grand R SUM OF grand AN total'Z j
IM OUTTA YR show
VISIBLE \"\"
VISIBLE \"PE \" ME \" TOTAL \" grand
KTHXBYE
",
        bins = bins,
        samples = samples_per_pe,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_source, Backend, RunConfig};
    use std::time::Duration;

    fn cfg(n: usize) -> RunConfig {
        RunConfig::new(n).timeout(Duration::from_secs(60))
    }

    #[test]
    fn hello_runs() {
        let outs = run_source(HELLO_PARALLEL, cfg(4)).unwrap();
        assert_eq!(outs[2], "HAI ITZ 2 OF 4\n");
    }

    #[test]
    fn ring_example_runs() {
        let n = 4;
        let outs = run_source(RING_EXAMPLE, cfg(n)).unwrap();
        for (me, o) in outs.iter().enumerate() {
            let next = (me + 1) % n;
            assert_eq!(o, &format!("PE {me} GOT {} .. {}\n", next * 1000, next * 1000 + 31));
        }
    }

    #[test]
    fn locks_example_counts_all_pes() {
        let n = 6;
        let outs = run_source(LOCKS_EXAMPLE, cfg(n)).unwrap();
        assert_eq!(outs[0], format!("PE 0 SEES X = {n}\n"));
    }

    #[test]
    fn barrier_example_is_deterministic() {
        let n = 5;
        for _ in 0..5 {
            let outs = run_source(BARRIER_EXAMPLE, cfg(n)).unwrap();
            for (me, o) in outs.iter().enumerate() {
                let left = (me + n - 1) % n;
                assert_eq!(o, &format!("PE {me}: C = {}\n", me + 1 + left + 1));
            }
        }
    }

    #[test]
    fn trylock_example_runs() {
        let outs = run_source(TRYLOCK_EXAMPLE, cfg(2)).unwrap();
        for (me, o) in outs.iter().enumerate() {
            assert_eq!(o, &format!("PE {me} WROTE 42\n"));
        }
    }

    #[test]
    fn nbody_small_runs_and_prints_positions() {
        let src = nbody_source(4, 2);
        let n = 2;
        let outs = run_source(&src, cfg(n)).unwrap();
        for (me, o) in outs.iter().enumerate() {
            assert!(o.starts_with(&format!("HAI ITZ {me} I HAS PARTICLZ 2 MUV\n")), "{o}");
            assert!(o.contains(&format!("O HAI ITZ {me}, MAH PARTICLZ IZ:\n")));
            // 4 particle lines with two finite floats each.
            let lines: Vec<&str> = o.lines().skip(2).collect();
            assert_eq!(lines.len(), 4);
            for l in lines {
                let parts: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(parts.len(), 2, "{l}");
                for p in parts {
                    let f: f64 = p.parse().expect("position is a number");
                    assert!(f.is_finite());
                }
            }
        }
    }

    #[test]
    fn nbody_interp_and_vm_agree() {
        let src = nbody_source(3, 2);
        let a = run_source(&src, cfg(3).seed(11)).unwrap();
        let b = run_source(&src, cfg(3).seed(11).backend(Backend::Vm)).unwrap();
        assert_eq!(a, b, "n-body must be backend-independent");
    }

    #[test]
    fn nbody_is_seed_deterministic() {
        let src = nbody_source(3, 2);
        let a = run_source(&src, cfg(2).seed(5)).unwrap();
        let b = run_source(&src, cfg(2).seed(5)).unwrap();
        let c = run_source(&src, cfg(2).seed(6)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn heat2d_conserves_heat_and_diffuses() {
        let src = heat2d_source(3, 6, 12);
        let n = 4;
        let outs = run_source(&src, cfg(n)).unwrap();
        let mut total = 0.0f64;
        for (me, o) in outs.iter().enumerate() {
            assert!(o.starts_with(&format!("PE {me} HEAT ")), "{o}");
            let heat: f64 = o.trim().rsplit(' ').next().unwrap().parse().unwrap();
            assert!(heat.is_finite());
            total += heat;
        }
        // Insulated plate: heat conserved mod 2-decimal print rounding.
        assert!((total - 100.0).abs() < 0.005 * n as f64 + 1e-9, "leaked: {total}");
        // Diffusion reality check: heat has crossed the PE-0 boundary.
        let pe0: f64 = outs[0].trim().rsplit(' ').next().unwrap().parse().unwrap();
        assert!(pe0 < 100.0, "no diffusion happened");
    }

    #[test]
    fn heat2d_interp_and_vm_agree() {
        let src = heat2d_source(2, 4, 5);
        let a = run_source(&src, cfg(3)).unwrap();
        let b = run_source(&src, cfg(3).backend(Backend::Vm)).unwrap();
        assert_eq!(a, b, "heat2d must be backend-independent");
    }

    #[test]
    fn histogram_counts_every_sample() {
        let (bins, samples, n) = (8, 50, 4);
        let src = histogram_source(bins, samples);
        let outs = run_source(&src, cfg(n).seed(21)).unwrap();
        // Every PE agrees on the same global histogram.
        let strip = |o: &str| o.replace(|c: char| c.is_ascii_digit(), "#");
        for o in &outs[1..] {
            assert_eq!(strip(o), strip(&outs[0]), "PEs disagree on shape");
        }
        let total_line = outs[0].lines().last().unwrap();
        assert_eq!(total_line, format!("PE 0 TOTAL {}", n * samples));
        // Global bin counts identical across PEs.
        let global: Vec<String> = outs
            .iter()
            .map(|o| o.lines().next().unwrap().split_once(" BINZ ").unwrap().1.to_string())
            .collect();
        assert!(global.iter().all(|g| g == &global[0]), "{global:?}");
    }

    #[test]
    fn histogram_is_seed_deterministic_and_backend_equal() {
        let src = histogram_source(4, 20);
        let a = run_source(&src, cfg(3).seed(5)).unwrap();
        let b = run_source(&src, cfg(3).seed(5).backend(Backend::Vm)).unwrap();
        let c = run_source(&src, cfg(3).seed(6)).unwrap();
        assert_eq!(a, b, "backends must agree");
        assert_ne!(a, c, "different seed must redistribute samples");
    }

    #[test]
    fn corpus_compiles_to_c() {
        for src in [HELLO_PARALLEL, RING_EXAMPLE, LOCKS_EXAMPLE, BARRIER_EXAMPLE, TRYLOCK_EXAMPLE] {
            let c = crate::compile_to_c(src).unwrap();
            assert!(c.contains("shmem_init();"));
        }
        let c = crate::compile_to_c(&nbody_paper()).unwrap();
        assert!(c.contains("static LOL_SYMMETRIC double g_pos_x[32];"));
        assert!(c.contains("static LOL_SYMMETRIC long g_pos_x__lock[3];"));
    }
}
