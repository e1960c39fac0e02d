//! `mayac` and `mayad` link glibc statically on linux-gnu
//! (`.cargo/config.toml`). A binary with a `PT_INTERP` program header is
//! started by the dynamic loader, which costs ~0.3 ms of every process —
//! most of the gap between a store-hit `mayac` and `/bin/true`
//! (EXPERIMENTS.md § E35). A build that loses `+crt-static` fails here.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

/// `p_type` of the program header naming the dynamic loader.
const PT_INTERP: u64 = 3;

/// The `p_type` of every program header of the ELF file at `path`.
fn program_header_types(path: &str) -> Vec<u64> {
    let elf = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(
        elf.get(..4),
        Some(&b"\x7fELF"[..]),
        "{path} is not an ELF file"
    );
    let wide = elf[4] == 2; // EI_CLASS: ELFCLASS64
    let little = elf[5] == 1; // EI_DATA: ELFDATA2LSB
    let int = |at: usize, len: usize| {
        let bytes = &elf[at..at + len];
        let fold = |n: u64, &b: &u8| n << 8 | u64::from(b);
        if little {
            bytes.iter().rev().fold(0, fold)
        } else {
            bytes.iter().fold(0, fold)
        }
    };
    let (phoff, phentsize, phnum) = if wide {
        (int(0x20, 8), int(0x36, 2), int(0x38, 2))
    } else {
        (int(0x1c, 4), int(0x2a, 2), int(0x2c, 2))
    };
    (0..phnum)
        .map(|i| int((phoff + i * phentsize) as usize, 4))
        .collect()
}

#[test]
fn mayac_and_mayad_start_without_the_dynamic_loader() {
    for (name, path) in [
        ("mayac", env!("CARGO_BIN_EXE_mayac")),
        ("mayad", env!("CARGO_BIN_EXE_mayad")),
    ] {
        let types = program_header_types(path);
        assert!(
            types.contains(&1),
            "{name}: no PT_LOAD header read, got {types:?}"
        );
        assert!(
            !types.contains(&PT_INTERP),
            "{name} is dynamically linked (it has a PT_INTERP header): the build lost \
             `-C target-feature=+crt-static` from .cargo/config.toml, or an environment \
             RUSTFLAGS replaced it"
        );
    }
}
