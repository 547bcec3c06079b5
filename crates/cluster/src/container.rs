//! Container images and registries.
//!
//! §6.3 executes the KaMPIng artifacts "within a Docker image published in
//! the GitHub Container Registry", starting a Globus Compute MEP *inside*
//! the container. §7.4 proposes container capture as a provenance extension.
//! We model an image as a frozen software environment plus metadata; running
//! "in" a container means the task resolves packages against the image's
//! environment instead of the site's.

use crate::software::SoftwareEnv;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    UnknownImage(String),
    TagExists(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::UnknownImage(r) => write!(f, "unknown image: {r}"),
            ContainerError::TagExists(r) => write!(f, "image tag already published: {r}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// An immutable container image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageSpec {
    /// Repository name, e.g. `"ghcr.io/kamping-site/kamping-reproducibility"`.
    pub repository: String,
    /// Tag, e.g. `"v1"` or `"latest"`.
    pub tag: String,
    /// The frozen software environment inside the image.
    pub env: SoftwareEnv,
}

impl ImageSpec {
    pub fn new(repository: &str, tag: &str) -> Self {
        ImageSpec {
            repository: repository.to_string(),
            tag: tag.to_string(),
            env: SoftwareEnv::new(&format!("{repository}:{tag}")),
        }
    }

    pub fn reference(&self) -> String {
        format!("{}:{}", self.repository, self.tag)
    }

    pub fn with_package(mut self, name: &str, version: &str) -> Self {
        self.env.install(name, version);
        self
    }
}

/// A registry of published images (GHCR-like). Tags are immutable once
/// published, mirroring the reproducibility-friendly convention.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    images: BTreeMap<String, ImageSpec>,
}

impl ImageRegistry {
    pub fn new() -> Self {
        ImageRegistry::default()
    }

    /// Publish an image. Re-publishing an existing tag is an error: mutable
    /// tags are the classic reproducibility hazard.
    pub fn publish(&mut self, image: ImageSpec) -> Result<(), ContainerError> {
        let reference = image.reference();
        if self.images.contains_key(&reference) {
            return Err(ContainerError::TagExists(reference));
        }
        self.images.insert(reference, image);
        Ok(())
    }

    /// Pull (look up) an image by `repo:tag` reference.
    pub fn pull(&self, reference: &str) -> Result<&ImageSpec, ContainerError> {
        self.images
            .get(reference)
            .ok_or_else(|| ContainerError::UnknownImage(reference.to_string()))
    }

    pub fn len(&self) -> usize {
        self.images.len()
    }

    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kamping_image() -> ImageSpec {
        ImageSpec::new("ghcr.io/kamping-site/kamping-reproducibility", "v1")
            .with_package("kamping", "1.0.0")
            .with_package("openmpi", "4.1.5")
    }

    #[test]
    fn publish_and_pull() {
        let mut reg = ImageRegistry::new();
        reg.publish(kamping_image()).unwrap();
        let img = reg
            .pull("ghcr.io/kamping-site/kamping-reproducibility:v1")
            .unwrap();
        assert_eq!(img.env.version_of("openmpi"), Some("4.1.5"));
    }

    #[test]
    fn tags_are_immutable() {
        let mut reg = ImageRegistry::new();
        reg.publish(kamping_image()).unwrap();
        assert_eq!(
            reg.publish(kamping_image()),
            Err(ContainerError::TagExists(
                "ghcr.io/kamping-site/kamping-reproducibility:v1".to_string()
            ))
        );
        // A new tag is fine.
        let mut v2 = kamping_image();
        v2.tag = "v2".to_string();
        reg.publish(v2).unwrap();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unknown_image_errors() {
        let reg = ImageRegistry::new();
        assert!(matches!(
            reg.pull("nope:latest"),
            Err(ContainerError::UnknownImage(_))
        ));
    }
}
