//! `videoql`: an interactive HTL shell over a video database.
//!
//! ```sh
//! cargo run -p simvid-examples --bin videoql            # starts with demo data
//! cargo run -p simvid-examples --bin videoql -- db.json # load a JSON store
//! ```
//!
//! Commands:
//!
//! ```text
//! query <HTL>      evaluate a query, print the global top-k
//! explain <HTL>    parse, classify and list the atomic units of a query
//! level <name>     set the evaluation level (default: shot)
//! k <n>            set the result count (default: 10)
//! videos           list the loaded videos
//! save <path>      write the store as JSON
//! help / quit
//! ```

use simvid_htl::{atomic_units, classify, parse};
use simvid_model::VideoStore;
use simvid_picture::{QueryLevel, VideoDatabase};
use simvid_workload::casablanca;
use std::io::{BufRead, Write};

fn demo_store() -> VideoStore {
    let mut store = VideoStore::new();
    store.add(casablanca::video());
    store
}

fn main() {
    let store: VideoStore = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad store JSON: {e}"))
        }
        None => {
            println!("no store given; loading the Casablanca demo video");
            demo_store()
        }
    };
    let mut level = QueryLevel::Named("shot".into());
    let mut k = 10usize;

    println!("videoql — type `help` for commands\n");
    let stdin = std::io::stdin();
    loop {
        print!("videoql> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "" => {}
            "quit" | "exit" => break,
            "help" => {
                println!(
                    "query <HTL>   explain <HTL>   level <name>   k <n>   videos   save <path>   quit"
                );
            }
            "videos" => {
                for (id, tree) in store.iter() {
                    println!(
                        "  {id}: {:?} — {} levels, {} segments",
                        tree.title(),
                        tree.depth(),
                        tree.segment_count()
                    );
                }
            }
            "level" => {
                level = match rest.parse::<u8>() {
                    Ok(d) => QueryLevel::Depth(d),
                    Err(_) if rest == "leaves" => QueryLevel::Leaves,
                    Err(_) => QueryLevel::Named(rest.to_owned()),
                };
                println!("level set to {level:?}");
            }
            "k" => match rest.parse() {
                Ok(n) => {
                    k = n;
                    println!("k = {k}");
                }
                Err(_) => println!("usage: k <n>"),
            },
            "save" => {
                match serde_json::to_string_pretty(&store)
                    .map_err(|e| e.to_string())
                    .and_then(|s| std::fs::write(rest, s).map_err(|e| e.to_string()))
                {
                    Ok(()) => println!("saved to {rest}"),
                    Err(e) => println!("save failed: {e}"),
                }
            }
            "explain" => match parse(rest) {
                Ok(f) => {
                    println!("parsed:  {f}");
                    println!("class:   {:?}", classify(&f));
                    let (hoisted, before, after) = simvid_htl::normalize_for_engine(&f);
                    if after < before {
                        println!("hoisted: {hoisted}");
                        println!("         ({before:?} -> {after:?} after quantifier hoisting)");
                    }
                    println!("units:");
                    for u in atomic_units(&f) {
                        let objs: Vec<&str> = u.free_objs.iter().map(|v| v.0.as_str()).collect();
                        println!("  {}  (free objects: {objs:?})", u.formula);
                    }
                }
                Err(e) => println!("parse error: {e}"),
            },
            "query" => match parse(rest) {
                Ok(f) => {
                    let db = VideoDatabase::new(&store).with_scoring(casablanca::weights());
                    match db.retrieve(&f, &level, k) {
                        Ok(hits) if hits.is_empty() => println!("no segments match"),
                        Ok(hits) => {
                            println!(
                                "{:>4}  {:>6}  {:>8}  {:>22}  {:>10}",
                                "#", "video", "position", "label", "similarity"
                            );
                            for (i, h) in hits.iter().enumerate() {
                                let tree = store.video(h.video);
                                println!(
                                    "{:>4}  {:>6}  {:>8}  {:>22}  {:>6.3} ({:>4.0}%)",
                                    i + 1,
                                    h.video.to_string(),
                                    h.pos,
                                    tree.node(h.segment).label(),
                                    h.sim.act,
                                    100.0 * h.sim.frac()
                                );
                            }
                        }
                        Err(e) => println!("evaluation error: {e}"),
                    }
                }
                Err(e) => println!("parse error: {e}"),
            },
            other => println!("unknown command `{other}` — try `help`"),
        }
    }
}
